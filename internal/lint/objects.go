package lint

import (
	"go/ast"
	"go/types"
)

// applyMethod is the Apply method of one sim.Object implementation.
type applyMethod struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// objectInterface returns the module's sim.Object interface, or nil when
// the module does not contain internal/sim (e.g. fixture modules).
func objectInterface(m *Module) *types.Interface {
	simPkg := m.Lookup(m.Path + "/internal/sim")
	if simPkg == nil {
		return nil
	}
	obj := simPkg.Types.Scope().Lookup("Object")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// applyMethods finds the Apply methods of every named type in the module
// that implements sim.Object.
func applyMethods(m *Module) []applyMethod {
	iface := objectInterface(m)
	if iface == nil {
		return nil
	}
	var out []applyMethod
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		impl := make(map[string]bool)
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				impl[name] = true
			}
		}
		if len(impl) == 0 {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name != "Apply" || fd.Recv == nil || fd.Body == nil {
					continue
				}
				if !impl[receiverTypeName(fd)] {
					continue
				}
				out = append(out, applyMethod{pkg: pkg, decl: fd})
			}
		}
	}
	return out
}

// receiverTypeName extracts the base type name of a method receiver.
func receiverTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
