//sperke:fixture path=internal/experiments/bad_method.go

package experiments

// table hands its cells out through a method: only the callee's result
// type says the loop below ranges over a map.
type table struct {
	cells map[string]int
}

func (t *table) cellsOf() map[string]int { return t.cells }

func (t *table) rows() []string {
	var out []string
	for name := range t.cellsOf() {
		out = append(out, name)
	}
	return out
}
