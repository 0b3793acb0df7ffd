// Package train drives live distributed training on top of the AIACC engine
// (package engine): it owns the parameter tensors, produces gradients (either
// from a real from-scratch multi-layer perceptron with backpropagation, or
// synthetically for the large zoo models), pushes them to the engine during
// the backward pass and applies the optimizer once aggregation completes.
package train

import (
	"errors"
	"fmt"
	"math/rand"

	"aiacc/optimizer"
	"aiacc/tensor"
)

// ErrBadInput indicates a sample whose dimensions do not match the network.
var ErrBadInput = errors.New("train: bad input dimensions")

// MLP is a real multi-layer perceptron with ReLU hidden activations and a
// linear output layer, trained with mean-squared error. Forward and backward
// passes are implemented from scratch; its gradients are genuine, so the
// quickstart example demonstrates actual distributed learning (decreasing
// loss) through the AIACC engine.
type MLP struct {
	sizes   []int
	weights []*tensor.Tensor // weights[l] is [out*in], row-major by output
	biases  []*tensor.Tensor
	gradW   []*tensor.Tensor
	gradB   []*tensor.Tensor
}

// NewMLP builds an MLP with the given layer sizes (at least input and
// output), initialized with deterministic scaled-uniform weights.
func NewMLP(seed int64, sizes ...int) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 layer sizes", ErrBadInput)
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("%w: layer size %d", ErrBadInput, s)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := tensor.New(out, in)
		scale := float32(1.0) / float32(in)
		for i := 0; i < w.Len(); i++ {
			w.Set(i, (rng.Float32()*2-1)*scale)
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, tensor.New(out))
		m.gradW = append(m.gradW, tensor.New(out, in))
		m.gradB = append(m.gradB, tensor.New(out))
	}
	return m, nil
}

// Layers returns the number of weight layers.
func (m *MLP) Layers() int { return len(m.weights) }

// Params implements the parameter listing used by the trainer and the
// optimizer: fc<l>.weight / fc<l>.bias with their gradient tensors.
func (m *MLP) Params() []optimizer.Param {
	params := make([]optimizer.Param, 0, 2*len(m.weights))
	for l := range m.weights {
		params = append(params,
			optimizer.Param{Name: fmt.Sprintf("fc%d.weight", l+1), Weight: m.weights[l], Grad: m.gradW[l], Layer: l},
			optimizer.Param{Name: fmt.Sprintf("fc%d.bias", l+1), Weight: m.biases[l], Grad: m.gradB[l], Layer: l},
		)
	}
	return params
}

// Forward computes the network output for one input.
func (m *MLP) Forward(x []float32) ([]float32, error) {
	acts, _, err := m.forward(x)
	if err != nil {
		return nil, err
	}
	return acts[len(acts)-1], nil
}

// forward returns the activations (a0..aL) and pre-activations (z1..zL).
func (m *MLP) forward(x []float32) (acts [][]float32, zs [][]float32, err error) {
	if len(x) != m.sizes[0] {
		return nil, nil, fmt.Errorf("%w: input %d, want %d", ErrBadInput, len(x), m.sizes[0])
	}
	a := x
	acts = append(acts, a)
	for l := range m.weights {
		in, out := m.sizes[l], m.sizes[l+1]
		w := m.weights[l].Data()
		b := m.biases[l].Data()
		z := make([]float32, out)
		for o := 0; o < out; o++ {
			sum := b[o]
			row := w[o*in : (o+1)*in]
			for i, ai := range a {
				sum += row[i] * ai
			}
			z[o] = sum
		}
		zs = append(zs, z)
		next := make([]float32, out)
		copy(next, z)
		if l+1 < len(m.weights) { // ReLU on hidden layers only
			for i := range next {
				if next[i] < 0 {
					next[i] = 0
				}
			}
		}
		acts = append(acts, next)
		a = next
	}
	return acts, zs, nil
}

// ZeroGrads clears all gradient tensors.
func (m *MLP) ZeroGrads() {
	for l := range m.gradW {
		m.gradW[l].Zero()
		m.gradB[l].Zero()
	}
}

// Backward runs forward+backward over a minibatch, accumulating averaged MSE
// gradients into the gradient tensors (which it zeroes first), and returns
// the mean loss.
func (m *MLP) Backward(inputs, targets [][]float32) (float64, error) {
	if len(inputs) == 0 || len(inputs) != len(targets) {
		return 0, fmt.Errorf("%w: %d inputs, %d targets", ErrBadInput, len(inputs), len(targets))
	}
	m.ZeroGrads()
	inv := float32(1) / float32(len(inputs))
	var loss float64
	for s := range inputs {
		if len(targets[s]) != m.sizes[len(m.sizes)-1] {
			return 0, fmt.Errorf("%w: target %d, want %d", ErrBadInput, len(targets[s]), m.sizes[len(m.sizes)-1])
		}
		acts, zs, err := m.forward(inputs[s])
		if err != nil {
			return 0, err
		}
		out := acts[len(acts)-1]
		delta := make([]float32, len(out))
		for i := range out {
			d := out[i] - targets[s][i]
			delta[i] = d
			loss += 0.5 * float64(d) * float64(d)
		}
		// Backpropagate through the layers.
		for l := len(m.weights) - 1; l >= 0; l-- {
			in := m.sizes[l]
			gw := m.gradW[l].Data()
			gb := m.gradB[l].Data()
			aPrev := acts[l]
			for o, d := range delta {
				gb[o] += d * inv
				row := gw[o*in : (o+1)*in]
				for i, ai := range aPrev {
					row[i] += d * ai * inv
				}
			}
			if l == 0 {
				break
			}
			w := m.weights[l].Data()
			prev := make([]float32, in)
			for i := 0; i < in; i++ {
				var sum float32
				for o, d := range delta {
					sum += w[o*in+i] * d
				}
				if zs[l-1][i] <= 0 { // ReLU derivative
					sum = 0
				}
				prev[i] = sum
			}
			delta = prev
		}
	}
	return loss / float64(len(inputs)), nil
}
