package objfile

import (
	"crypto/sha256"
	"fmt"
)

// Hash returns the SHA-256 content address of the module's serialized form,
// memoizing the result on the object: the incremental link pipeline hashes
// the same modules once per decode rather than once per link. The hash is
// only valid while the object is treated as immutable — every consumer past
// the compiler does treat modules as read-only, and the caches built on this
// hash (decoded programs, lifted procedures) depend on that discipline.
func (o *Object) Hash() string {
	if h, ok := o.hash.Load().(string); ok {
		return h
	}
	h := fmt.Sprintf("%x", sha256.Sum256(o.Encode()))
	o.hash.Store(h)
	return h
}
