// Minimal stand-in for internal/sim's kernel-driving surface, enough
// for ctxdiscipline's rule-1 receiver matching.
package sim

type Time = int64

type Kernel struct{}

func (k *Kernel) Run() Time                { return 0 }
func (k *Kernel) RunUntil(limit Time) Time { return 0 }

type ShardGroup struct{}

func (g *ShardGroup) Run() Time { return 0 }
