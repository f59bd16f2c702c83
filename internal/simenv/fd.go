package simenv

import (
	"errors"
	"fmt"
	"sync"
)

// ErrFDExhausted is returned when the file-descriptor table is full — the
// study's "lack of file descriptors" environment condition.
var ErrFDExhausted = errors.New("simenv: file descriptor table exhausted")

// FD is a simulated file descriptor.
type FD int

// FDTable tracks open file descriptors and who owns them. Ownership lets a
// recovery system (or a resource garbage collector, paper §6.2) reclaim the
// descriptors of a failed application.
type FDTable struct {
	mu    sync.Mutex
	limit int
	next  FD
	open  map[FD]string // fd -> owner
}

func newFDTable(limit int) *FDTable {
	return &FDTable{
		limit: limit,
		next:  3, // 0-2 reserved, as on a real system
		open:  make(map[FD]string),
	}
}

// Limit returns the table capacity.
func (t *FDTable) Limit() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limit
}

// SetLimit changes the table capacity; the paper's §6.2 "dynamically increase
// the number of file descriptors" mitigation.
func (t *FDTable) SetLimit(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.limit = n
}

// InUse returns the number of open descriptors.
func (t *FDTable) InUse() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}

// Open allocates a descriptor for owner. It fails with ErrFDExhausted when
// the table is full.
func (t *FDTable) Open(owner string) (FD, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.open) >= t.limit {
		return 0, ErrFDExhausted
	}
	fd := t.next
	t.next++
	t.open[fd] = owner
	return fd, nil
}

// Close releases a descriptor. Closing an unknown descriptor is an error (it
// would be a double close in the application).
func (t *FDTable) Close(fd FD) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.open[fd]; !ok {
		return fmt.Errorf("simenv: close of unopened fd %d", fd)
	}
	delete(t.open, fd)
	return nil
}

// Owner returns the owner of fd, or "" if it is not open.
func (t *FDTable) Owner(fd FD) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[fd]
}

// OwnedBy returns how many descriptors the owner holds.
func (t *FDTable) OwnedBy(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, o := range t.open {
		if o == owner {
			n++
		}
	}
	return n
}

// ReleaseOwner closes every descriptor held by owner and returns how many
// were released.
func (t *FDTable) ReleaseOwner(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for fd, o := range t.open {
		if o == owner {
			delete(t.open, fd)
			n++
		}
	}
	return n
}
