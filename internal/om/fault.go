package om

// faultHook, when non-nil, mutates the transformed program after the
// passes (and profile-guided layout) but before statistics collection,
// journal construction, and emission. It models a buggy optimization pass:
// the damage is invisible to OM's own accounting, and the verification
// subsystem must catch it from the outside. Tests only.
var faultHook func(*Prog)

// SetFaultHookForTesting installs a post-pass program mutation and returns
// a function restoring the previous hook. The verify package uses it to
// prove a deliberately-broken OM pass is caught by both the translation
// validator and the differential runner. Not safe for concurrent Runs; the
// tests that use it are serial.
func SetFaultHookForTesting(h func(*Prog)) (restore func()) {
	old := faultHook
	faultHook = h
	return func() { faultHook = old }
}

// DeleteKeptLoad is the standard injected fault: it deletes the first
// address load the passes kept, as a buggy pass would, leaving its uses
// reading a stale register. It reports whether it found a load to delete.
func DeleteKeptLoad(pg *Prog) bool {
	for _, pr := range pg.Procs {
		for _, si := range pr.Insts {
			if si.Lit != nil && !si.Lit.Converted && !si.Lit.Nullified && !si.Deleted {
				si.Deleted = true
				return true
			}
		}
	}
	return false
}
