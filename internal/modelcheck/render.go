package modelcheck

// render.go renders sim.Values as strings without going through fmt for
// the common cases. The exhaustive engines render a value once per
// object step — the E6 transition-table build and the valency analysis
// both sit on this path — and fmt's reflection walk plus its interface
// boxing of every argument dominated their allocation profiles. The
// rendered strings are byte-identical to fmt.Sprint's output for every
// type the switch names, and the default arm still delegates to fmt, so
// reports cannot drift.

import (
	"fmt"
	"strconv"
	"strings"

	"detobj/internal/sim"
)

// renderValue renders one value exactly as fmt.Sprint would.
func renderValue(v sim.Value) string {
	switch x := v.(type) {
	case nil:
		return "<nil>"
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case bool:
		if x {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprint(v)
	}
}

// renderValues renders a value slice exactly as fmt.Sprint renders the
// slice itself: elements space-separated inside brackets. DecisionVectors
// keys its vectors through here, so decision keys render identically to
// decisionValues without fmt's reflection walk over the slice.
func renderValues(vs []sim.Value) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(renderValue(v))
	}
	b.WriteByte(']')
	return b.String()
}
