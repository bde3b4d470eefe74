package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba) with gradient clipping.
type Adam struct {
	Params []*Param
	LR     float32
	Beta1  float32
	Beta2  float32
	Eps    float32
	// ClipNorm, when positive, rescales the global gradient norm to
	// at most this value before the update — essential for the policy
	// gradients of Eq. (5), whose magnitude varies with the advantage.
	ClipNorm float32

	t    int
	m, v [][]float32
}

// NewAdam builds an Adam optimizer with standard hyperparameters.
func NewAdam(params []*Param, lr float32) *Adam {
	a := &Adam{
		Params: params, LR: lr,
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5,
		m: make([][]float32, len(params)),
		v: make([][]float32, len(params)),
	}
	for i, p := range params {
		a.m[i] = make([]float32, len(p.W))
		a.v[i] = make([]float32, len(p.W))
	}
	return a
}

// Step applies one update and clears the gradients.
func (a *Adam) Step() {
	a.t++
	if a.ClipNorm > 0 {
		var sq float64
		for _, p := range a.Params {
			for _, g := range p.G {
				sq += float64(g) * float64(g)
			}
		}
		norm := math.Sqrt(sq)
		if norm > float64(a.ClipNorm) {
			scale := float32(float64(a.ClipNorm) / norm)
			for _, p := range a.Params {
				for j := range p.G {
					p.G[j] *= scale
				}
			}
		}
	}
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for i, p := range a.Params {
		m, v := a.m[i], a.v[i]
		for j := range p.W {
			g := p.G[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mh := m[j] / bc1
			vh := v[j] / bc2
			p.W[j] -= a.LR * mh / (float32(math.Sqrt(float64(vh))) + a.Eps)
		}
		p.ZeroGrad()
	}
}
