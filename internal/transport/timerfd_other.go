//go:build !linux

package transport

import "time"

// timerfd is absent off Linux: the scheduler sleeps on its Go timer alone,
// and an idle process delivers sub-millisecond delays about a millisecond late.
type timerfd struct{}

func newTimerfd(func()) *timerfd   { return nil }
func (*timerfd) arm(time.Duration) {}
func (*timerfd) close()            {}
