package vet

import (
	"go/ast"
	"go/token"
	"strings"
)

// trigRadians are the math functions that take radians; degreeReturning
// are the inverse functions whose radian results routinely get stored
// in Sperke's degree-valued orientation fields.
var (
	trigRadians = map[string]bool{
		"Sin": true, "Cos": true, "Tan": true, "Sincos": true,
		"Asin": true, "Acos": true, "Atan": true, "Atan2": true,
	}
	trigInverse = map[string]bool{
		"Asin": true, "Acos": true, "Atan": true, "Atan2": true,
	}
)

// degreeSpans are the packages whose exported API speaks degrees; the
// inverse (radian-result-into-degree-field) rule runs only there.
var degreeSpans = []string{"internal/sphere", "internal/tiling"}

// UnitSafety guards the degree/radian boundary of the spherical
// geometry: orientation fields (Yaw/Pitch/Roll) and *Deg-suffixed names
// are degree-valued by convention, while math's trig wants radians.
//
// Forward rule (module-wide): a math.Sin/Cos/... argument mentioning a
// degree-valued name must carry the *math.Pi/180 conversion inside the
// same expression.
//
// Inverse rule (sphere/tiling only): an assignment or composite-literal
// entry whose target is degree-named and whose value contains
// math.Asin/Acos/Atan/Atan2 must convert with *180/math.Pi in the same
// expression.
var UnitSafety = &Analyzer{
	Name: "unitsafety",
	Doc:  "flag math trig applied to degree-named values without an adjacent Pi/180 conversion (and the inverse)",
	CheckModule: func(m *Module) []Diagnostic {
		var out []Diagnostic
		eachFile(m, nil, func(_ *TypedPackage, f *File) {
			mathName := importName(f.AST, "math")
			if mathName == "" {
				return
			}
			// Forward: degrees flowing into radian-taking trig.
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := pkgCall(call, mathName)
				if !ok || !trigRadians[fn] {
					return true
				}
				for _, arg := range call.Args {
					if mentionsDegreeName(arg) && !mentionsPiAnd180(arg, mathName) {
						out = append(out, f.diag("unitsafety", arg.Pos(),
							"degree-valued expression passed to %s.%s without *%s.Pi/180 conversion",
							mathName, fn, mathName))
					}
				}
				return true
			})
			if !inSpan(f.Path, degreeSpans) {
				return
			}
			// Inverse: radian-returning trig landing in degree-named targets.
			flag := func(target ast.Expr, value ast.Expr) {
				if !isDegreeName(exprName(target)) {
					return
				}
				if containsInverseTrig(value, mathName) && !mentionsPiAnd180(value, mathName) {
					out = append(out, f.diag("unitsafety", value.Pos(),
						"radian result of inverse trig stored in degree-valued %q without *180/%s.Pi conversion",
						exprName(target), mathName))
				}
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i := range n.Lhs {
						flag(n.Lhs[i], n.Rhs[i])
					}
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						flag(k, n.Value)
					}
				}
				return true
			})
		})
		return out
	},
}

// exprName extracts the trailing identifier of an ident or selector.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// isDegreeName matches the orientation fields and the *Deg/*Degrees
// naming convention.
func isDegreeName(name string) bool {
	switch strings.ToLower(name) {
	case "yaw", "pitch", "roll", "deg", "degrees":
		return true
	}
	lower := strings.ToLower(name)
	return strings.HasSuffix(lower, "deg") || strings.HasSuffix(lower, "degrees")
}

// mentionsDegreeName reports whether the expression references a
// degree-valued field or a *Deg-suffixed identifier. Bare lowercase
// locals like "yaw" are deliberately not matched in the forward
// direction: the convention is that converted radian temporaries reuse
// those names (yaw := o.Yaw * math.Pi / 180).
func mentionsDegreeName(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			switch n.Sel.Name {
			case "Yaw", "Pitch", "Roll":
				found = true
			}
			if isDegSuffixed(n.Sel.Name) {
				found = true
			}
		case *ast.Ident:
			if isDegSuffixed(n.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isDegSuffixed matches explicit degree-suffixed names of any case.
func isDegSuffixed(name string) bool {
	lower := strings.ToLower(name)
	return lower == "deg" || lower == "degrees" ||
		strings.HasSuffix(lower, "deg") || strings.HasSuffix(lower, "degrees")
}

// mentionsPiAnd180 reports whether the expression carries a degree↔radian
// conversion: both math.Pi and the literal 180 appear somewhere in it.
func mentionsPiAnd180(e ast.Expr, mathName string) bool {
	var hasPi, has180 bool
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && id.Name == mathName && n.Sel.Name == "Pi" {
				hasPi = true
			}
		case *ast.BasicLit:
			if n.Kind == token.INT && n.Value == "180" {
				has180 = true
			}
		}
		return true
	})
	return hasPi && has180
}

// containsInverseTrig reports whether the expression calls
// math.Asin/Acos/Atan/Atan2.
func containsInverseTrig(e ast.Expr, mathName string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, ok := pkgCall(call, mathName); ok && trigInverse[fn] {
				found = true
			}
		}
		return !found
	})
	return found
}
