//go:build !linux

package main

// fsType names the filesystem holding dir where the platform can tell.
func fsType(string) string { return "unknown" }
