package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// This file holds the patch/hash helpers the fleet controller
// (internal/fleetctl) builds on. A rollout is expressed as a Thinner
// patch (zero fields mean "unchanged", exactly the /control/config
// POST contract); each front's convergence is verified by comparing
// the config_hash the front reports against the hash of the merged
// target computed client-side — both sides canonicalize with the same
// encoder, so the comparison is a pure string equality.

// HashThinner returns the hex SHA-256 of a thinner section's canonical
// encoding (the same two-space-indent, fixed-field-order, trailing-
// newline form Encode uses for whole scenarios). This is the
// config_hash /control/config and /stats report, and the identity the
// fleet controller converges on.
func HashThinner(t Thinner) string {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		// Only unsupported value kinds can fail, and Thinner has none.
		panic(err)
	}
	sum := sha256.Sum256(append(b, '\n'))
	return hex.EncodeToString(sum[:])
}

// MergeThinner applies patch over base with /control/config POST
// semantics: non-zero patch fields win, zero fields keep base's value.
// The result is what a front running base reports after accepting
// patch — the fleet controller hashes it to know each front's target.
func MergeThinner(base, patch Thinner) Thinner {
	out := base
	if patch.OrphanTimeout != 0 {
		out.OrphanTimeout = patch.OrphanTimeout
	}
	if patch.InactivityTimeout != 0 {
		out.InactivityTimeout = patch.InactivityTimeout
	}
	if patch.SweepInterval != 0 {
		out.SweepInterval = patch.SweepInterval
	}
	if patch.Shards != 0 {
		out.Shards = patch.Shards
	}
	return out
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
