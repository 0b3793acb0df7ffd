//go:build !purego

package wire

// useAVX reports that the CPU and the OS support AVX and F16C, the two
// feature sets the assembly kernels use; without it every call takes the
// portable loop.
var useAVX = hasAVXF16C()

// hasAVXF16C tests CPUID leaf 1 for OSXSAVE, AVX and F16C and XCR0 for
// OS-saved XMM and YMM state.
func hasAVXF16C() bool

// Each kernel processes whole 8-lane vectors of the first n elements and
// returns the number of elements finished: n rounded down to a multiple of
// 8, or less when it stopped in front of a vector with a NaN lane (see
// kernels.go). Nothing at or past the returned index has been written.

//go:noescape
func encodeHalfAVX(dst *byte, src *float32, n int) int

//go:noescape
func decodeHalfAVX(dst *float32, src *byte, n int) int

//go:noescape
func decodeHalfAddAVX(dst *float32, src *byte, n int) int

//go:noescape
func addFloat32sAVX(dst *float32, src *byte, n int) int

//go:noescape
func scaleFloat32sAVX(dst *float32, f float32, n int) int
