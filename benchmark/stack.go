package main

import (
	"errors"
	"fmt"
	"time"

	"srccache/internal/bench"
	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/engine"
	"srccache/internal/netblock"
	"srccache/internal/src"
)

// target is what a client goroutine drives: a netblock.Client on the
// served stack, a fleet.Fleet on the replicated one.
type target interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Close() error
}

type clientTarget struct{ *netblock.Client }

func (c clientTarget) ReadAt(p []byte, off int64) error {
	_, err := c.Client.ReadAt(p, off)
	return err
}

func (c clientTarget) WriteAt(p []byte, off int64) error {
	_, err := c.Client.WriteAt(p, off)
	return err
}

// wrapFn decorates a backend at a boundary the benchmark owns; nil means
// the stack is assembled bare, as netblockd does. node is the fleet node
// index (0 on the served stack).
type wrapFn func(b netblock.Backend, name spanName, node int) netblock.Backend

// The daemon's own settings (cmd/netblockd): idle timeout and drain grace
// on the server, dial and request timeouts on every chain and client
// connection.
const (
	serverIdle  = 2 * time.Minute
	serverDrain = time.Second
	shards      = 2
	stripePages = 256
	fleetNodes  = 3
	rangeBytes  = 1 << 20
)

var clientOpts = netblock.ClientOptions{DialTimeout: 2 * time.Second, Timeout: 10 * time.Second}

// stack is one assembled system under test: the served stack (eng and one
// server), the fleet (chains, servers, ring), or the bare cache of the
// direct workload.
type stack struct {
	dial    func() (target, error)
	servers []*netblock.Server
	eng     *engine.Engine
	cache   *src.Cache
	chains  []*fleet.ChainBackend
	ring    *cluster.Ring
	fleets  []*fleet.Fleet
}

func serve(b netblock.Backend, epoch uint64) (*netblock.Server, string, error) {
	srv, err := netblock.NewServerWith(b)
	if err != nil {
		return nil, "", err
	}
	srv.SetEpoch(epoch)
	srv.IdleTimeout = serverIdle
	srv.DrainGrace = serverDrain
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr.String(), nil
}

// newEngine builds the engine netblockd -shards 2 -size volume builds.
func newEngine(volume int64, payload bool) (*engine.Engine, error) {
	build, err := engine.MemShardBuilder(engine.ShardSpec{ShardBytes: volume / shards})
	if err != nil {
		return nil, err
	}
	return engine.New(engine.Options{Shards: shards, StripePages: stripePages, Payload: payload}, build)
}

// buildServed assembles client → TCP → server → engine → src.Cache.
func buildServed(s spec, wrap wrapFn) (*stack, error) {
	eng, err := newEngine(s.volume, true)
	if err != nil {
		return nil, err
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	var backend netblock.Backend = eng
	if wrap != nil {
		backend = wrap(backend, spBackend, 0)
	}
	srv, addr, err := serve(backend, 0)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &stack{
		eng:     eng,
		servers: []*netblock.Server{srv},
		dial: func() (target, error) {
			c, err := netblock.DialOptions(addr, clientOpts)
			if err != nil {
				return nil, err
			}
			return clientTarget{c}, nil
		},
	}, nil
}

// buildFleet assembles three flat nodes, each a MemBackend wrapped by a
// ChainBackend under a 3-member R = 3 ring; clients are fleet.Fleets. The
// ring is built twice, as a deployment's config file would fix it once:
// first without addresses to start the nodes, then with the bound ones.
func buildFleet(s spec, wrap wrapFn) (*stack, error) {
	members := make([]cluster.Member, fleetNodes)
	for i := range members {
		members[i].ID = fmt.Sprintf("n%d", i)
	}
	ranges := int(s.volume / rangeBytes)
	boot, err := cluster.NewRing(fleetNodes, ranges, rangeBytes, members)
	if err != nil {
		return nil, err
	}
	st := &stack{}
	for i := range members {
		local, err := netblock.MemBackend(s.volume)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			local = wrap(local, spChainLocal, i)
		}
		chain, err := fleet.NewChainBackend(local, members[i].ID, boot, clientOpts)
		if err != nil {
			return nil, err
		}
		var backend netblock.Backend = chain
		if wrap != nil {
			backend = wrap(backend, spChainHead, i)
		}
		srv, addr, err := serve(backend, 1)
		if err != nil {
			st.close()
			return nil, err
		}
		members[i].Addr = addr
		st.chains = append(st.chains, chain)
		st.servers = append(st.servers, srv)
	}
	if st.ring, err = cluster.NewRing(fleetNodes, ranges, rangeBytes, members); err != nil {
		st.close()
		return nil, err
	}
	for _, c := range st.chains {
		if err := c.SetRing(st.ring); err != nil {
			st.close()
			return nil, err
		}
	}
	st.dial = func() (target, error) {
		f, err := fleet.New(st.ring, clientOpts)
		if err != nil {
			return nil, err
		}
		st.fleets = append(st.fleets, f)
		return f, nil
	}
	return st, nil
}

// counters reports the src counters behind the stack, zero on the fleet
// (flat backends, no cache).
func (st *stack) counters() (bench.Counters, error) {
	switch {
	case st.eng != nil:
		return st.eng.Counters()
	case st.cache != nil:
		return st.cache.Counters(), nil
	}
	return bench.Counters{}, nil
}

// close runs after the clients have closed. Chain connections go first, so
// that every server connection has seen EOF and Close need not sit out the
// drain grace; the engine goes last, once nothing can call it.
func (st *stack) close() error {
	var errs []error
	for _, c := range st.chains {
		errs = append(errs, c.Close())
	}
	for _, s := range st.servers {
		errs = append(errs, s.Close())
	}
	if st.eng != nil {
		errs = append(errs, st.eng.Close())
	}
	return errors.Join(errs...)
}
