// Minimal stand-in for internal/netsim: SendFunc registers the
// continuation that runs once a message's last frame is injected.
package netsim

import "nbfx/sim"

type Message struct{}

type Network struct{}

func (n *Network) SendFunc(t *sim.Task, m *Message, done func()) {
}
