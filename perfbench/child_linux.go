package main

import (
	"os/exec"
	"syscall"
)

// guardChild has the kernel kill the child when the benchmark dies,
// so a benchmark killed mid-run leaves no daemon behind.
func guardChild(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
