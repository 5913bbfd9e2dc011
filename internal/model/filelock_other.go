//go:build !unix

package model

// lockFile degrades to a no-op on platforms without flock: the atomic
// tmp+rename in Save still keeps the file valid, concurrent
// cross-process savers may lose each other's new entries (they re-measure
// on the next run), and in-process concurrency stays fully protected by
// the cache mutex.
func lockFile(path string) (func(), error) {
	return func() {}, nil
}
