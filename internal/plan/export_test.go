package plan

import (
	"colorfulxml/internal/core"
	"colorfulxml/internal/storage"
)

// Param is a literal of the text a plan was compiled from that one of its
// operators takes from the arguments: its ordinal among the text's
// literals, and the colour and tag whose content count a cost choice read
// for it (empty when none did).
type Param struct {
	Ord   int
	Color core.Color
	Tag   string
}

// ParamsOf lists the parameters of c, in ordinal order.
func ParamsOf(c *Compiled) []Param {
	var out []Param
	for i, l := range c.lits {
		if !l.param {
			continue
		}
		p := Param{Ord: i}
		for _, chk := range c.checks {
			if chk.arg == i+1 {
				p.Color, p.Tag = chk.color, chk.tag
			}
		}
		out = append(out, p)
	}
	return out
}

// RunOf returns the content run a cache lookup counted for p's arguments.
func RunOf(p Plan) storage.ContentRun { return p.run }
