package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// While a run lasts, a child process keeps every CPU busy with one spinning
// thread per CPU at the SCHED_IDLE policy: the kernel runs such a thread
// only when nothing else wants the CPU and preempts it as soon as a
// benchmark thread wakes. On a shared VM a CPU that goes idle is handed
// back to the hypervisor, and waking it again can take milliseconds when
// the host is busy. The paced phases idle between chunks, so without the
// spinners they measured those wake-ups: in one set of gateway runs the
// blackout median doubled while steal time rose to a third of the run, and
// with the spinners steal time stayed near zero. The spinners live in
// their own process, so the benchmark's CPU time (getrusage of itself)
// leaves them out and its Go scheduler never sees them.

// spinnerArg is the first argument that makes the binary a spinner child.
const spinnerArg = "-idle-spinner"

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// spinner is the running child process.
type spinner struct {
	cmd  *exec.Cmd
	pipe *os.File // the child's stdin; closing it ends the child
}

// startSpinner starts a child with n spinning threads.
func startSpinner(n int) (*spinner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	cmd := exec.Command(exe, spinnerArg, strconv.Itoa(n))
	cmd.Stdin = r
	cmd.Stderr = os.Stderr
	// The child also dies with the benchmark if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		w.Close()
		return nil, err
	}
	return &spinner{cmd: cmd, pipe: w}, nil
}

// stop ends the child and waits for it; it may be called more than once,
// and on a nil spinner.
func (s *spinner) stop() {
	if s == nil || s.pipe == nil {
		return
	}
	s.pipe.Close()
	s.pipe = nil
	if err := s.cmd.Wait(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: idle spinner: %v\n", err)
	}
}

// runSpinner is the child's main: n threads at SCHED_IDLE spin until stdin
// reaches EOF, which happens when the benchmark stops the child or exits.
// A thread whose policy cannot be set does not spin, since at the normal
// policy it would compete with the benchmark.
func runSpinner(n int) {
	runtime.GOMAXPROCS(n + 1)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			param := int32(0) // struct sched_param{sched_priority: 0}
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				fmt.Fprintf(os.Stderr, "benchmark: idle spinner: sched_setscheduler: %v\n", errno)
				return
			}
			for {
			}
		}()
	}
	io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
}
