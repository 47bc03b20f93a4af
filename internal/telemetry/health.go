package telemetry

import "sync/atomic"

// Health is the serving stack's liveness/readiness state, published at
// /healthz and /readyz by the handler. Liveness is implicit (the process
// answers); readiness is an explicit bit the owner flips — set after the
// first cache build commits, cleared while shutting down — so load
// balancers stop routing before Close drains the workers.
type Health struct {
	ready atomic.Bool
}

// NewHealth returns a not-ready Health.
func NewHealth() *Health { return &Health{} }

// SetReady flips the readiness bit.
func (h *Health) SetReady(ready bool) { h.ready.Store(ready) }
