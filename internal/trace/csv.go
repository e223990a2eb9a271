package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// The CSV layout follows the MSR Cambridge block-trace format:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamps are Windows FILETIME ticks (100 ns units) in the original
// traces: absolute, about 1.28e17 for 2007. Files written by this package
// use the same unit, counted from the trace's start. ResponseTime is
// ignored on read and written as 0.

// filetimeTick is the FILETIME resolution in virtual-time units.
const filetimeTick = 100 * vtime.Nanosecond

// WriteCSV serializes records in MSR format.
func WriteCSV(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		op := "Write"
		if r.Op == blockdev.OpRead {
			op = "Read"
		}
		_, err := fmt.Fprintf(bw, "%d,%s,%d,%s,%d,%d,0\n",
			int64(r.Timestamp/filetimeTick), r.Host, r.Disk, op, r.Off, r.Len)
		if err != nil {
			return fmt.Errorf("trace: write csv: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCSV parses MSR-format records. Timestamps become offsets from the
// earliest record's (the first, in a file in time order), and offsets and
// sizes are rounded outward to page alignment (real traces contain
// sector-aligned values). Blank lines and empty records are skipped; a
// negative timestamp or offset, or an end or time offset past the int64
// range, is refused by line.
func ReadCSV(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	// The earliest and latest ticks seen, and the latter's line: every
	// offset from the earliest scales into vtime iff the latest one does.
	minTicks, maxTicks, maxLine := int64(math.MaxInt64), int64(-1), 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 6 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want at least 6", line, len(fields))
		}
		ticks, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d timestamp: %w", line, err)
		}
		if ticks < 0 {
			return nil, fmt.Errorf("trace: line %d: negative timestamp %d", line, ticks)
		}
		disk, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d disk: %w", line, err)
		}
		var op blockdev.Op
		switch strings.ToLower(fields[3]) {
		case "read":
			op = blockdev.OpRead
		case "write":
			op = blockdev.OpWrite
		default:
			return nil, fmt.Errorf("trace: line %d: unknown op %q", line, fields[3])
		}
		off, err := strconv.ParseInt(fields[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d offset: %w", line, err)
		}
		size, err := strconv.ParseInt(fields[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d size: %w", line, err)
		}
		if size <= 0 {
			continue
		}
		if off < 0 {
			return nil, fmt.Errorf("trace: line %d: negative offset %d", line, off)
		}
		// The end, rounded up to a page, must not pass math.MaxInt64.
		if off > math.MaxInt64-(blockdev.PageSize-1)-size {
			return nil, fmt.Errorf("trace: line %d: %d bytes at offset %d end past the largest offset", line, size, off)
		}
		end := off + size
		off -= off % blockdev.PageSize
		if end%blockdev.PageSize != 0 {
			end += blockdev.PageSize - end%blockdev.PageSize
		}
		minTicks = min(minTicks, ticks)
		if ticks > maxTicks {
			maxTicks, maxLine = ticks, line
		}
		recs = append(recs, Record{
			Timestamp: vtime.Duration(ticks), // rebased below
			Host:      fields[1],
			Disk:      disk,
			Op:        op,
			Off:       off,
			Len:       end - off,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if maxTicks-minTicks > int64(math.MaxInt64/filetimeTick) {
		return nil, fmt.Errorf("trace: line %d: timestamp %d is %d ticks after the trace's start, past the largest time offset",
			maxLine, maxTicks, maxTicks-minTicks)
	}
	for i := range recs {
		recs[i].Timestamp = (recs[i].Timestamp - vtime.Duration(minTicks)) * filetimeTick
	}
	return recs, nil
}
