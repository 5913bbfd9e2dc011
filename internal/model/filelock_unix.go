//go:build unix

package model

import (
	"os"
	"syscall"
)

// lockFile takes an exclusive advisory lock on path (created if
// missing), blocking until it is available, and returns the unlock
// function. Cross-process writers of a shared cost-cache file serialize
// their read-merge-write cycles through it.
func lockFile(path string) (func(), error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}
