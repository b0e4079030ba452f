package machine

import (
	"errors"

	"dart/internal/types"
)

// AllocaLimit is the simulated stack-space limit for the alloca library
// function, standing in for the ~2.5 MB cygwin stack bound behind the
// oSIP parser vulnerability of Sec. 4.3 (sizes are in cells here).
const AllocaLimit = 1 << 16

// StdLibSigs returns the type signatures of the standard library
// functions available to MiniC programs.  They are the paper's "library
// functions": deterministic black boxes the tool executes but does not
// analyze.
func StdLibSigs() map[string]*types.Func {
	charPtr := &types.Pointer{Elem: types.CharType}
	i := types.IntType
	return map[string]*types.Func{
		"abs": {Params: []types.Type{i}, Result: i},
		"min": {Params: []types.Type{i, i}, Result: i},
		"max": {Params: []types.Type{i, i}, Result: i},
		// mix is a non-linear combiner (an opaque checksum) used by the
		// examples that exercise DART's black-box graceful degradation.
		"mix": {Params: []types.Type{i, i}, Result: i},
		// cube computes x*x*x, the paper's example of a non-linear test
		// hidden behind a library call (Sec. 2.5).
		"cube": {Params: []types.Type{i}, Result: i},
		// alloca models bounded stack allocation: NULL on failure, which
		// oSIP famously did not check.
		"alloca": {Params: []types.Type{i}, Result: charPtr},
		"memset": {Params: []types.Type{charPtr, i, i}, Result: charPtr},
		"memcpy": {Params: []types.Type{charPtr, charPtr, i}, Result: charPtr},
		"strlen": {Params: []types.Type{charPtr}, Result: i},
		"strcmp": {Params: []types.Type{charPtr, charPtr}, Result: i},
	}
}

// StdLibImpls returns the implementations matching StdLibSigs.
func StdLibImpls() map[string]LibImpl {
	return map[string]LibImpl{
		"abs": func(_ *Machine, a []int64) (int64, error) {
			if a[0] < 0 {
				return -a[0], nil
			}
			return a[0], nil
		},
		"min": func(_ *Machine, a []int64) (int64, error) {
			if a[0] < a[1] {
				return a[0], nil
			}
			return a[1], nil
		},
		"max": func(_ *Machine, a []int64) (int64, error) {
			if a[0] > a[1] {
				return a[0], nil
			}
			return a[1], nil
		},
		"mix": func(_ *Machine, a []int64) (int64, error) {
			x := uint64(a[0])*0x9E3779B9 + uint64(a[1])*0x85EBCA6B
			x ^= x >> 16
			return int64(int32(x)), nil
		},
		"cube": func(_ *Machine, a []int64) (int64, error) {
			x := int64(int32(a[0]))
			return int64(int32(x * x * x)), nil
		},
		"alloca": func(m *Machine, a []int64) (int64, error) {
			n := a[0]
			if n <= 0 || n > AllocaLimit {
				return 0, nil // allocation failure: NULL, no error
			}
			base, err := m.Mem().Alloc(n)
			if err != nil {
				return 0, nil
			}
			return base, nil
		},
		"memset": func(m *Machine, a []int64) (int64, error) {
			dst, v, n := a[0], a[1], a[2]
			for i := int64(0); i < n; i++ {
				if err := m.StoreCell(dst+i, int64(int8(v))); err != nil {
					return 0, err
				}
			}
			return dst, nil
		},
		"memcpy": func(m *Machine, a []int64) (int64, error) {
			dst, src, n := a[0], a[1], a[2]
			for i := int64(0); i < n; i++ {
				v, err := m.LoadCell(src + i)
				if err != nil {
					return 0, err
				}
				if err := m.StoreCell(dst+i, v); err != nil {
					return 0, err
				}
			}
			return dst, nil
		},
		"strlen": func(m *Machine, a []int64) (int64, error) {
			p := a[0]
			for n := int64(0); ; n++ {
				v, err := m.LoadCell(p + n)
				if err != nil {
					return 0, err
				}
				if v == 0 {
					return n, nil
				}
				if n > 1<<22 {
					return 0, errors.New("strlen: unterminated string")
				}
			}
		},
		"strcmp": func(m *Machine, a []int64) (int64, error) {
			p, q := a[0], a[1]
			for i := int64(0); ; i++ {
				x, err := m.LoadCell(p + i)
				if err != nil {
					return 0, err
				}
				y, err := m.LoadCell(q + i)
				if err != nil {
					return 0, err
				}
				if x != y {
					if x < y {
						return -1, nil
					}
					return 1, nil
				}
				if x == 0 {
					return 0, nil
				}
			}
		},
	}
}
