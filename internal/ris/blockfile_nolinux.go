//go:build !linux

package ris

// dropResident is a no-op off linux. Under the !unix fallback a block's
// "mapping" is its heap buffer, which must stay as it is.
func dropResident([]byte) {}
