//go:build !amd64 || purego

package wire

// No assembly kernels in this build: the portable loops do all the work and
// the stubs below only satisfy the references in kernels.go, which the
// compiler removes as dead code behind the constant.
const useAVX = false

func encodeHalfAVX(*byte, *float32, int) int      { return 0 }
func decodeHalfAVX(*float32, *byte, int) int      { return 0 }
func decodeHalfAddAVX(*float32, *byte, int) int   { return 0 }
func addFloat32sAVX(*float32, *byte, int) int     { return 0 }
func scaleFloat32sAVX(*float32, float32, int) int { return 0 }
