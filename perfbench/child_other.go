//go:build !linux

package main

import "os/exec"

// guardChild is a no-op where the kernel offers no parent-death signal.
func guardChild(cmd *exec.Cmd) {}
