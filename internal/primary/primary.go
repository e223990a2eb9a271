// Package primary models the paper's primary storage (Table 1): a RAID-10
// volume of 7.2K RPM hard disks reached over a 1 Gbps network link (the
// iSCSI path). It is the durable home of all data; the SSD cache layers sit
// in front of it and verify content against its store.
package primary

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/hdd"
	"srccache/internal/netlink"
	"srccache/internal/raid"
	"srccache/internal/vtime"
)

// The volume's shape is the paper's (Table 1): 8 drives in RAID-10 with
// 64 KiB chunks, reached over netlink's default link (1 Gbps, 200 µs RTT).
const (
	// disks is the number of member drives.
	disks = 8
	// chunkSize is the RAID-10 stripe chunk.
	chunkSize = 64 << 10
)

// Config describes the backend volume.
type Config struct {
	// DiskCapacity is the per-drive size in bytes (default 2 GiB scaled;
	// the paper used 2 TB drives).
	DiskCapacity int64
}

// Validate fills defaults.
func (c Config) Validate() (Config, error) {
	if c.DiskCapacity == 0 {
		c.DiskCapacity = 2 << 30
	}
	return c, nil
}

// Storage is the network-attached backend volume.
type Storage struct {
	cfg   Config
	link  *netlink.Link
	array *raid.Array
	stats blockdev.Stats
}

var _ blockdev.Device = (*Storage)(nil)

// New builds the backend volume.
func New(cfg Config) (*Storage, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	link, err := netlink.New(netlink.Config{})
	if err != nil {
		return nil, err
	}
	devs := make([]blockdev.Device, disks)
	for i := range devs {
		d, err := hdd.New(hdd.Config{Name: fmt.Sprintf("hdd%d", i), Capacity: cfg.DiskCapacity})
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	array, err := raid.New(raid.Level10, chunkSize, devs)
	if err != nil {
		return nil, err
	}
	return &Storage{cfg: cfg, link: link, array: array}, nil
}

// Config returns the effective configuration.
func (s *Storage) Config() Config { return s.cfg }

// Capacity reports the usable volume size in bytes.
func (s *Storage) Capacity() int64 { return s.array.Capacity() }

// Stats reports volume-level traffic counters.
func (s *Storage) Stats() *blockdev.Stats { return &s.stats }

// Content exposes the volume's logical content store — the durable oracle
// the cache layers are checked against.
func (s *Storage) Content() *blockdev.Content { return s.array.Content() }

// Array exposes the underlying RAID-10 volume (for rebuild experiments and
// per-disk stats).
func (s *Storage) Array() *raid.Array { return s.array }

// Link exposes the network pipe (for traffic accounting).
func (s *Storage) Link() *netlink.Link { return s.link }

// Submit schedules one request across the network and the disk array.
func (s *Storage) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	if err := req.Validate(s.Capacity()); err != nil {
		return at, err
	}
	s.stats.Record(req)
	switch req.Op {
	case blockdev.OpWrite:
		// Payload crosses the link, then the array serves it; the
		// acknowledgement is a negligible return message.
		arrive := s.link.Send(at, req.Len)
		done, err := s.array.Submit(arrive, req)
		if err != nil {
			return at, err
		}
		return done.Add(s.link.Config().RTT / 2), nil
	case blockdev.OpRead:
		// Command crosses the link, the array serves it, the payload
		// returns over the receive direction.
		arrive := at.Add(s.link.Config().RTT / 2)
		done, err := s.array.Submit(arrive, req)
		if err != nil {
			return at, err
		}
		return s.link.Recv(done, req.Len), nil
	default: // trim
		arrive := at.Add(s.link.Config().RTT / 2)
		done, err := s.array.Submit(arrive, req)
		if err != nil {
			return at, err
		}
		return done.Add(s.link.Config().RTT / 2), nil
	}
}

// Flush forwards to the disk array.
func (s *Storage) Flush(at vtime.Time) (vtime.Time, error) {
	s.stats.Flushes++
	done, err := s.array.Flush(at.Add(s.link.Config().RTT / 2))
	if err != nil {
		return at, err
	}
	return done.Add(s.link.Config().RTT / 2), nil
}
