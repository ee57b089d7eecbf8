package recovery

import (
	"encoding/gob"
	"sync"
)

var gobOnce sync.Once

// RegisterGob registers the recovery protocol's message payload types with
// encoding/gob for real network transports. Safe to call multiple times.
func RegisterGob() {
	gobOnce.Do(func() {
		gob.RegisterName("recovery.walkMsg", walkMsg{})
		gob.RegisterName("recovery.pingMsg", pingMsg{})
		gob.RegisterName("recovery.setupMsg", setupMsg{})
		gob.RegisterName("recovery.setupReply", setupReply{})
	})
}
