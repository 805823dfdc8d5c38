package transport

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfd is a kernel timer whose expiry the runtime's network poller sees
// as descriptor readiness, which brings an idle P out of epoll_wait at
// hrtimer precision instead of at the poller's millisecond granularity.
type timerfd struct {
	fd   uintptr
	file *os.File      // owns fd; non-blocking, so reads park in the poller
	done chan struct{} // closed when the reading goroutine has exited
}

// newTimerfd starts a goroutine that calls fired at every expiry. Where the
// kernel has no timerfd it returns nil, which arm and close accept, and
// the Go timer stands alone.
func newTimerfd(fired func()) *timerfd {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	t := &timerfd{fd: fd, file: os.NewFile(fd, "timerfd"), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		var expirations [8]byte
		for {
			if _, err := t.file.Read(expirations[:]); err != nil {
				return // closed
			}
			fired()
		}
	}()
	return t
}

// arm sets the timer to expire once, d from now, replacing any earlier
// setting. The scheduler's goroutine is the only caller, and closes last.
func (t *timerfd) arm(d time.Duration) {
	if t == nil {
		return
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(max(d, 1)))} // zero would disarm
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

func (t *timerfd) close() {
	if t != nil {
		t.file.Close() // fails the pending Read
		<-t.done
	}
}
