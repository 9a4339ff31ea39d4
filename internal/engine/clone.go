package engine

// Plan re-entrancy: a compiled plan held by a prepared statement or the plan
// cache is a prototype, never executed directly. Each execution clones the
// operator tree — configuration copied, run state zeroed, children cloned
// recursively — so two sessions running the same Stmt concurrently never
// share iteration state. Clones are cheap (a handful of small struct
// allocations per plan node, no store access) next to the parse+compile they
// replace.
//
// Every Clone below lists the operator's configuration fields explicitly and
// omits its run-state fields, mirroring the config/state split in each
// operator's declaration. Config slices (Project.Cols, PathScan.Steps) are
// shared, not copied: the compiler never mutates a plan after building it.

// Clone implements Op.
func (o *ScanTag) Clone() Op {
	return &ScanTag{Color: o.Color, Tag: o.Tag}
}

// Clone implements Op.
func (o *EqContent) Clone() Op {
	return &EqContent{Color: o.Color, Tag: o.Tag, Value: o.Value, Arg: o.Arg}
}

// Clone implements Op.
func (o *ContainsScan) Clone() Op {
	return &ContainsScan{Color: o.Color, Tag: o.Tag, Pred: o.Pred}
}

// Clone implements Op.
func (o *Filter) Clone() Op {
	return &Filter{Input: o.Input.Clone(), Col: o.Col, Pred: o.Pred}
}

// Clone implements Op.
func (o *AttrFilter) Clone() Op {
	return &AttrFilter{Input: o.Input.Clone(), Col: o.Col, Name: o.Name, Pred: o.Pred}
}

// Clone implements Op.
func (o *StructJoin) Clone() Op {
	return &StructJoin{
		Anc:     o.Anc.Clone(),
		Desc:    o.Desc.Clone(),
		AncCol:  o.AncCol,
		DescCol: o.DescCol,
		Axis:    o.Axis,
		Merge:   o.Merge,
	}
}

// Clone implements Op.
func (o *ExistsJoin) Clone() Op {
	return &ExistsJoin{
		Input:    o.Input.Clone(),
		Probe:    o.Probe.Clone(),
		Col:      o.Col,
		ProbeCol: o.ProbeCol,
		Axis:     o.Axis,
	}
}

// Clone implements Op.
func (o *CrossColor) Clone() Op {
	return &CrossColor{Input: o.Input.Clone(), Col: o.Col, To: o.To}
}

// Clone implements Op.
func (o *NavJoin) Clone() Op {
	return &NavJoin{Input: o.Input.Clone(), Col: o.Col, Axis: o.Axis, Color: o.Color, Tag: o.Tag}
}

// Clone implements Op.
func (o *Uniq) Clone() Op {
	return &Uniq{Input: o.Input.Clone()}
}

// Clone implements Op.
func (o *ValueJoin) Clone() Op {
	return &ValueJoin{
		Left:     o.Left.Clone(),
		Right:    o.Right.Clone(),
		LeftCol:  o.LeftCol,
		RightCol: o.RightCol,
		LeftKey:  o.LeftKey,
		RightKey: o.RightKey,
	}
}

// Clone implements Op.
func (o *IDJoin) Clone() Op {
	return &IDJoin{
		Left:     o.Left.Clone(),
		Right:    o.Right.Clone(),
		LeftCol:  o.LeftCol,
		RightCol: o.RightCol,
	}
}

// Clone implements Op.
func (o *NLJoin) Clone() Op {
	return &NLJoin{
		Left:     o.Left.Clone(),
		Right:    o.Right.Clone(),
		LeftCol:  o.LeftCol,
		RightCol: o.RightCol,
		Kind:     o.Kind,
		Numeric:  o.Numeric,
	}
}

// Clone implements Op.
func (o *Dedup) Clone() Op {
	return &Dedup{Input: o.Input.Clone(), Col: o.Col, Ordered: o.Ordered}
}

// Clone implements Op.
func (o *Project) Clone() Op {
	return &Project{Input: o.Input.Clone(), Cols: o.Cols}
}

// Clone implements Op.
func (o *SortStart) Clone() Op {
	return &SortStart{Input: o.Input.Clone(), Col: o.Col}
}

// Clone implements Op.
func (o *TupleOrder) Clone() Op { return &TupleOrder{Input: o.Input.Clone()} }

// Clone implements Op.
func (o *PathScan) Clone() Op {
	return &PathScan{Color: o.Color, Steps: o.Steps}
}
