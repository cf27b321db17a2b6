//go:build !linux

package mapfile

// DropResident is a no-op off linux (and Map's heap buffer must stay).
func DropResident([]byte) {}
