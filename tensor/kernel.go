package tensor

// ApplyParallel is Apply.
//
// Deprecated: the kernel worker pool it once fanned out to is gone; call
// Apply.
func (op ReduceOp) ApplyParallel(dst, src []float32) error { return op.Apply(dst, src) }
