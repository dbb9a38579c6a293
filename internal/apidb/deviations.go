package apidb

import (
	"strings"

	"repro/internal/cast"
)

// returnsErrorCode reports whether the function has an int-ish return type
// and some return of a negative constant or an error-named variable.
func returnsErrorCode(fd *cast.FuncDef) bool {
	if fd.Ret.IsPointer() || fd.Ret.Base == "void" {
		return false
	}
	found := false
	cast.Walk(fd.Body, func(n cast.Node) bool {
		r, ok := n.(*cast.ReturnStmt)
		if !ok || r.Value == nil {
			return true
		}
		switch v := r.Value.(type) {
		case *cast.UnaryExpr:
			if v.Op.String() == "-" {
				found = true
			}
		case *cast.Ident:
			lower := strings.ToLower(v.Name)
			if lower == "retval" || lower == "ret" || lower == "err" ||
				lower == "error" || lower == "rc" ||
				strings.HasPrefix(v.Name, "-E") || strings.HasPrefix(v.Name, "E") && v.Name == strings.ToUpper(v.Name) {
				found = true
			}
		}
		return true
	})
	return found
}
