package om

// Ablation switches: each disables one component of OM-full so its
// individual contribution can be measured (the ablation study DESIGN.md
// calls for; see the harness Ablation table and BenchmarkAblation). The
// JSON names are part of the om-options wire form and must stay stable.
type Ablation struct {
	// NoGATReduction keeps every original GAT slot.
	NoGATReduction bool `json:"no_gat_reduction,omitempty"`
	// NoCommonSort leaves commons in standard-linker placement.
	NoCommonSort bool `json:"no_common_sort,omitempty"`
	// NoPrologueRestore skips moving displaced GP pairs back to entry,
	// leaving OM-full with OM-simple's call-site limitation.
	NoPrologueRestore bool `json:"no_prologue_restore,omitempty"`
	// NoPairInsertion disables the ldah/lda materialization of far
	// addresses, so address loads without LITUSE chains survive.
	NoPairInsertion bool `json:"no_pair_insertion,omitempty"`
	// NoCallOpt leaves every jsr and PV load untouched.
	NoCallOpt bool `json:"no_call_opt,omitempty"`
	// NoResetOpt keeps all GP resets.
	NoResetOpt bool `json:"no_reset_opt,omitempty"`
	// NoPrologueDelete keeps every procedure's GP-setup pair.
	NoPrologueDelete bool `json:"no_prologue_delete,omitempty"`
	// NoAddressOpt disables address-load conversion and nullification.
	NoAddressOpt bool `json:"no_address_opt,omitempty"`
}

// Name returns a short label for the single enabled switch (for tables).
func (ab Ablation) Name() string {
	switch {
	case ab.NoGATReduction:
		return "-gat-reduction"
	case ab.NoCommonSort:
		return "-common-sort"
	case ab.NoPrologueRestore:
		return "-prologue-restore"
	case ab.NoPairInsertion:
		return "-pair-insertion"
	case ab.NoCallOpt:
		return "-call-opt"
	case ab.NoResetOpt:
		return "-reset-opt"
	case ab.NoPrologueDelete:
		return "-prologue-delete"
	case ab.NoAddressOpt:
		return "-address-opt"
	}
	return "full"
}

// Ablations enumerates the single-component ablations plus the unablated
// baseline.
func Ablations() []Ablation {
	return []Ablation{
		{},
		{NoAddressOpt: true},
		{NoCallOpt: true},
		{NoResetOpt: true},
		{NoPrologueDelete: true},
		{NoPrologueRestore: true},
		{NoGATReduction: true},
		{NoCommonSort: true},
		{NoPairInsertion: true},
	}
}
