// Scaleout: the paper's §6 roadmap item — "expand or contract the number
// of SSDs in RAID-5 in a smooth and seamless manner" — exercised end to
// end, at both tiers where the repository can grow.
//
// Act one scales the array inside one node: a 3-drive SRC array runs a
// skewed workload, is expanded to 5 drives under content verification, then
// contracted back to 3, with no data lost at any step.
//
// Act two scales the fleet across nodes with nobody at the keyboard: three
// live netblock servers on loopback form a consistent-hash ring with 2-way
// chained replication under a supervisor daemon that owns the routing
// table. A node is killed — reads and writes fail over, the supervisor
// detects the kill from its own pings and quarantines the node's copies —
// and comes back with a wiped disk, which the supervisor repairs, verified;
// then a fourth node joins through the supervisor's crash-safe journal.
// The client only reads and writes: node loss as column loss writ large.
//
// -small shrinks the acts for CI smoke runs.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"srccache"
	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/cluster/supervisor"
	"srccache/internal/netblock"
)

const (
	ssdCap  = 64 << 20
	egs     = 4 << 20
	primCap = 512 << 20
)

func main() {
	small := flag.Bool("small", false, "shrink the workload for CI smoke runs")
	flag.Parse()
	if err := runArray(*small); err != nil {
		log.Fatal(err)
	}
	if err := runSupervised(*small); err != nil {
		log.Fatal(err)
	}
}

func runArray(small bool) error {
	span := int64(24000) // working-set pages, beyond one array's capacity
	warm, extra := 20000, 10000
	if small {
		span, warm, extra = 6000, 4000, 2000
	}
	mkDrive := func(name string) (srccache.Device, error) {
		cfg := srccache.SATAMLCConfig(name, ssdCap)
		cfg.EraseGroupSize = egs
		cfg.WriteCacheBytes = 4 << 20
		return srccache.NewSSD(cfg)
	}
	drives := make([]srccache.Device, 3)
	for i := range drives {
		d, err := mkDrive(fmt.Sprintf("ssd%d", i))
		if err != nil {
			return err
		}
		drives[i] = d
	}
	prim, err := srccache.NewPrimary(srccache.PrimaryConfig{DiskCapacity: primCap / 4})
	if err != nil {
		return err
	}
	cache, err := srccache.NewCache(srccache.CacheConfig{
		SSDs:           drives,
		Primary:        prim,
		EraseGroupSize: egs,
		SegmentColumn:  64 << 10,
		TrackContent:   true,
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(7))
	versions := make(map[int64]uint64)
	var at srccache.Time
	apply := func(n int, label string) error {
		for i := 0; i < n; i++ {
			lba := rng.Int63n(span)
			done, err := cache.Submit(at, srccache.Request{
				Op: srccache.OpWrite, Off: lba * srccache.PageSize, Len: srccache.PageSize,
			})
			if err != nil {
				return fmt.Errorf("%s write: %w", label, err)
			}
			versions[lba]++
			if done > at {
				at = done
			}
		}
		return nil
	}
	verify := func(label string) error {
		for lba, v := range versions {
			want := srccache.DataTag(lba, v)
			if tag, _, err := cache.ReadCheck(at, lba); err == nil {
				if tag != want {
					return fmt.Errorf("%s: page %d wrong in cache", label, lba)
				}
				continue
			}
			// Not cached: the latest version must be safe on primary.
			got, err := prim.Content().ReadTag(lba)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("%s: page %d neither cached nor destaged", label, lba)
			}
		}
		fmt.Printf("%-22s %6d pages cached, %d groups, all content verified\n",
			label, cache.CachedPages(), cache.Groups())
		return nil
	}

	if err := apply(warm, "warmup"); err != nil {
		return err
	}
	if err := verify("3-drive RAID-5:"); err != nil {
		return err
	}

	// Expand to 5 drives (two new ones join; the existing three stay).
	bigger := append(append([]srccache.Device{}, drives...), nil, nil)
	for i := 3; i < 5; i++ {
		d, err := mkDrive(fmt.Sprintf("ssd%d", i))
		if err != nil {
			return err
		}
		bigger[i] = d
	}
	done, err := cache.Resize(at, bigger)
	if err != nil {
		return err
	}
	fmt.Printf("expanded to 5 drives in %v of virtual time\n", done.Sub(at))
	at = done
	if err := apply(extra, "post-expand"); err != nil {
		return err
	}
	if err := verify("5-drive RAID-5:"); err != nil {
		return err
	}

	// Contract back to 3 drives: overflow destages to primary, nothing is
	// lost.
	done, err = cache.Resize(at, bigger[:3])
	if err != nil {
		return err
	}
	fmt.Printf("contracted to 3 drives in %v of virtual time\n", done.Sub(at))
	at = done
	if err := verify("3-drive again:"); err != nil {
		return err
	}
	fmt.Println("scale-out/scale-in round trip complete — no data lost")
	return nil
}

// fleetNode is one live server plus the in-process handles the demo uses to
// kill and restart it.
type fleetNode struct {
	id    string
	addr  string
	chain *fleet.ChainBackend
	srv   *netblock.Server
}

func dialOpts() netblock.ClientOptions {
	return netblock.ClientOptions{DialTimeout: 2 * time.Second, Timeout: 5 * time.Second}
}

// startFleetNode boots a supervised node — no placement until the
// supervisor pushes one — on addr ("127.0.0.1:0" picks a port).
func startFleetNode(id, addr string, size int64) (*fleetNode, error) {
	back, err := netblock.MemBackend(size)
	if err != nil {
		return nil, err
	}
	chain, err := fleet.Boot(back, id, fleet.TCP(dialOpts()))
	if err != nil {
		return nil, err
	}
	srv, err := netblock.NewServerWith(chain)
	if err != nil {
		return nil, err
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &fleetNode{id: id, addr: bound.String(), chain: chain, srv: srv}, nil
}

func (n *fleetNode) close() {
	n.srv.Close()
	n.chain.Close()
}

// runSupervised is act two. The supervisor daemon owns the table; the
// "operator" only kills a node, brings it back wiped, and asks for a join.
// Detection, quarantine, repair, and the rebalance all happen inside Tick.
func runSupervised(small bool) error {
	ranges, rangeBytes := 32, int64(64<<10)
	if small {
		ranges, rangeBytes = 16, int64(16<<10)
	}
	ids := []string{"east", "west", "north"}
	size := int64(ranges) * rangeBytes
	nodes := make(map[string]*fleetNode)
	var members []cluster.Member
	for _, id := range ids {
		n, err := startFleetNode(id, "127.0.0.1:0", size)
		if err != nil {
			return err
		}
		defer func() { nodes[n.id].close() }()
		nodes[id] = n
		members = append(members, cluster.Member{ID: id, Addr: n.addr})
	}
	ring, err := cluster.NewRing(2, ranges, rangeBytes, members)
	if err != nil {
		return err
	}

	// The supervisor's journal survives its own crashes; the push closure
	// resolves the node through the map so a restarted node (new chain,
	// new server, same address) keeps receiving epochs.
	dir, err := os.MkdirTemp("", "scaleout-supervisor")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	supNode := func(id, addr string) supervisor.Node {
		return supervisor.Node{
			Member: cluster.Member{ID: id, Addr: addr},
			Push: func(p fleet.Placement) error {
				n := nodes[id]
				if err := n.chain.Install(p); err != nil {
					return err
				}
				n.srv.SetEpoch(p.Table.Epoch)
				return nil
			},
		}
	}
	var supNodes []supervisor.Node
	for _, m := range members {
		supNodes = append(supNodes, supNode(m.ID, m.Addr))
	}
	sup, err := supervisor.New(supervisor.Config{
		Ring:        ring,
		Nodes:       supNodes,
		JournalPath: filepath.Join(dir, "table.journal"),
		Detector:    cluster.DetectorConfig{FailAfter: 2},
		Transport:   fleet.TCP(dialOpts()),
	})
	if err != nil {
		return err
	}
	defer sup.Close()
	tickUntil := func(what string, cond func(supervisor.Status) bool) (supervisor.Status, error) {
		var st supervisor.Status
		for i := 0; i < 60; i++ {
			var err error
			if st, err = sup.Tick(); err != nil {
				return st, err
			}
			if cond(st) {
				return st, nil
			}
		}
		return st, fmt.Errorf("supervisor never reached %s: %+v", what, st)
	}

	fl, err := fleet.New(ring, dialOpts())
	if err != nil {
		return err
	}
	defer fl.Close()
	fl.SetControl(sup.Ring, sup.ReportMiss)

	model := make([]byte, ring.Size())
	rand.New(rand.NewSource(23)).Read(model)
	if err := fl.WriteAt(model, 0); err != nil {
		return err
	}
	fmt.Printf("supervised fleet of %d nodes at epoch %d: content written\n", len(ids), sup.Status().Epoch)

	// Kill west. The supervisor notices from its own pings — no operator
	// report — and quarantines every range west owned.
	nodes["west"].srv.Close()
	st, err := tickUntil("detection", func(st supervisor.Status) bool {
		return len(st.Quarantined) > 0
	})
	if err != nil {
		return err
	}
	fmt.Printf("west killed: detected down in %v, %d range copies quarantined\n",
		st.DetectLatency, len(st.Quarantined))
	patch := bytes.Repeat([]byte{0xC7}, 4096)
	copy(model[0:], patch)
	if err := fl.WriteAt(patch, 0); err != nil {
		return fmt.Errorf("write during quarantine: %w", err)
	}

	// Bring west back with an empty disk. It serves nothing until the
	// supervisor places it; the supervisor quarantines every range west
	// owns, repairs each verified, then lifts the quarantine.
	nodes["west"].close()
	west, err := startFleetNode("west", nodes["west"].addr, size)
	if err != nil {
		return err
	}
	nodes["west"] = west
	st, err = tickUntil("repair", func(st supervisor.Status) bool {
		return len(st.Quarantined) == 0 && st.Repairs > 0
	})
	if err != nil {
		return err
	}
	fmt.Printf("west restarted wiped: %d repairs streamed, quarantine empty, MTTR %v\n",
		st.Repairs, st.RepairLatency)

	// Ask for a join; the supervisor journals the transition, streams the
	// moves, and commits the new epoch on its own ticks.
	joiner, err := startFleetNode("south", "127.0.0.1:0", size)
	if err != nil {
		return err
	}
	defer joiner.close()
	nodes["south"] = joiner
	if err := sup.Register(supNode("south", joiner.addr)); err != nil {
		return err
	}
	if err := sup.BeginJoin(cluster.Member{ID: "south", Addr: joiner.addr}); err != nil {
		return err
	}
	st, err = tickUntil("join commit", func(st supervisor.Status) bool {
		return st.Phase == cluster.SupStable && st.Commits > 0 && len(st.Quarantined) == 0
	})
	if err != nil {
		return err
	}
	got := make([]byte, len(model))
	if err := fl.ReadAt(got, 0); err != nil {
		return err
	}
	if !bytes.Equal(got, model) {
		return fmt.Errorf("supervised volume diverges from model after join")
	}
	fmt.Printf("south joined autonomously: epoch %d, %d commits, content verified\n",
		st.Epoch, st.Commits)
	fmt.Println("supervised scale-out complete — detect, quarantine, repair, rebalance: zero operator steps")
	return nil
}
