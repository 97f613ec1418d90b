// Package cpu is the one place that asks the processor which vector
// kernels it can run. media's payload generator and CRC and tiling's
// lattice classifier each select their kernel once, at init, from ZMM.
// Off amd64 there are no kernels, and the package is empty.
package cpu
