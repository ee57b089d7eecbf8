package bcp

import (
	"encoding/gob"
	"sync"

	"repro/internal/service"
)

var gobOnce sync.Once

// RegisterGob registers BCP's message payload types (and the service-layer
// types they embed) with encoding/gob for real network transports. Safe to
// call multiple times.
func RegisterGob() {
	gobOnce.Do(func() {
		gob.RegisterName("bcp.Probe", &Probe{})
		gob.RegisterName("bcp.Result", Result{})
		gob.RegisterName("bcp.teardownMsg", teardownMsg{})
		gob.RegisterName("bcp.ackMsg", ackMsg{})
		gob.RegisterName("bcp.probeAckMsg", probeAckMsg{})
		gob.RegisterName("bcp.chosenMsg", chosenMsg{})
		gob.RegisterName("bcp.creditMsg", creditMsg{})
		// registry reads a lookup's items as *service.Component.
		gob.RegisterName("service.Component", &service.Component{})
	})
}
