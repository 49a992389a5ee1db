package config

import "reflect"

// This file holds the patch/hash helpers the fleet controller
// (internal/fleetctl) builds on. A rollout is expressed as a Thinner
// patch (zero fields mean "unchanged", exactly the /control/config
// POST contract); each front's convergence is verified by comparing
// the config_hash the front reports against the hash of the merged
// target computed client-side — both sides canonicalize with the same
// encoder, so the comparison is a pure string equality.

// HashThinner returns the hex SHA-256 of a thinner section's canonical
// encoding, the one Encode uses: the config_hash /control/config and
// /stats report, and the identity the fleet controller converges on.
func HashThinner(t Thinner) string { return digest(t) }

// MergeThinner applies patch over base with /control/config POST
// semantics: non-zero patch fields win, zero fields keep base's value.
// The result is what a front running base reports after accepting
// patch — the fleet controller hashes it to know each front's target.
func MergeThinner(base, patch Thinner) Thinner {
	out, p := reflect.ValueOf(&base).Elem(), reflect.ValueOf(patch)
	for i := range p.NumField() {
		if f := p.Field(i); !f.IsZero() {
			out.Field(i).Set(f)
		}
	}
	return base
}

// ThinnerStatus is the body of /control/config responses (GET and a
// successful POST): the effective thinner section flattened alongside
// its canonical hash, so controllers verify convergence by string
// comparison instead of re-canonicalizing the section client-side.
type ThinnerStatus struct {
	Thinner
	ConfigHash string `json:"config_hash"`
}

// StatusOf pairs a thinner section with its canonical hash.
func StatusOf(t Thinner) ThinnerStatus {
	return ThinnerStatus{Thinner: t, ConfigHash: HashThinner(t)}
}
