// Package graph models DyNN dataflow graphs: a *static architecture* (the
// program text, with unresolved control flow) and *resolved graphs* (the
// per-input linear operator sequence). It also builds the paper's
// architecture feature matrix (AFM, §IV-A2), enumerates resolution paths for
// mapping pilot-model output back onto the graph (§IV-B), and expands a
// resolved forward pass into a full training iteration (forward + backward +
// optimizer).
package graph

import (
	"fmt"

	"dynnoffload/internal/idiom"
	"dynnoffload/internal/tensor"
)

// Op is one operator instance in a dataflow graph. Sig carries the
// idiom-based nine-element signature with dimension elements filled from the
// operator's input shapes.
type Op struct {
	Name    string
	Sig     idiom.Signature
	FLOPs   int64
	Inputs  []*tensor.Meta
	Outputs []*tensor.Meta
}

// Bytes returns the total bytes touched (inputs + outputs, duplicates counted
// once), which drives the memory-bandwidth term of the cost model.
func (o *Op) Bytes() int64 {
	// Operand lists are short: the concatenation stays on the stack.
	var buf [8]*tensor.Meta
	all := append(append(buf[:0], o.Inputs...), o.Outputs...)
	return tensor.TotalBytes(all)
}

// InputShapes returns the shapes of all inputs (for signature dims).
func (o *Op) InputShapes() [][]int {
	shapes := make([][]int, 0, len(o.Inputs))
	for _, t := range o.Inputs {
		shapes = append(shapes, t.Shape)
	}
	return shapes
}

// NewOp builds an operator, looking up its idiom signature in the default
// registry and filling the dimension elements from the input shapes.
func NewOp(name string, flops int64, inputs, outputs []*tensor.Meta) *Op {
	op := &Op{Name: name, FLOPs: flops, Inputs: inputs, Outputs: outputs}
	sig := idiom.Default.MustSignature(name)
	op.Sig = sig.WithDims(op.InputShapes()...)
	return op
}

func (o *Op) String() string {
	return fmt.Sprintf("%s(in=%d out=%d flops=%d)", o.Name, len(o.Inputs), len(o.Outputs), o.FLOPs)
}
