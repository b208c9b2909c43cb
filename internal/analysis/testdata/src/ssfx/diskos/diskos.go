// Minimal stand-in for internal/diskos: ActiveDisk's leaf-owned
// mechanics vs hub-owned communication surface.
package diskos

import "ssfx/sim"

type Chunk struct {
	Bytes int64
}

type ActiveDisk struct{}

// Leaf-owned: disk mechanics, on-drive CPU, scratch.
func (ad *ActiveDisk) ReadLocal(p *sim.Proc, off, n int64)  {}
func (ad *ActiveDisk) WriteLocal(p *sim.Proc, off, n int64) {}
func (ad *ActiveDisk) Compute(p *sim.Proc, cycles int64)    {}

// Hub-owned: interconnect loops, front-end inbox, pending-request
// resource.
func (ad *ActiveDisk) Send(p *sim.Proc, dst int, c Chunk)  {}
func (ad *ActiveDisk) SendToFrontEnd(p *sim.Proc, c Chunk) {}
func (ad *ActiveDisk) Recv(p *sim.Proc) (Chunk, bool)      { return Chunk{}, false }
func (ad *ActiveDisk) Release(n int64)                     {}
func (ad *ActiveDisk) CloseInbox()                         {}

type FrontEnd struct{}

// Hub-owned: the front-end inbox.
func (fe *FrontEnd) Recv(p *sim.Proc) (Chunk, bool) { return Chunk{}, false }
func (fe *FrontEnd) CloseInbox()                    {}
