package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// This file is the one on-disk frame format of the package and the one
// reader that parses it. The binary dataset segments (seg-%02d.bin) and
// the flight-recorder event log (events-%02d.bin) are both sequences of
//
//	[payload length u32 LE][payload][CRC32-IEEE of the payload u32 LE]
//
// and every read of either — open-time recovery, shard scans, point
// lookups, the export merge, event scans and both repairs — goes
// through frameIter, so a malformed frame is refused the same way
// wherever it is met.

// ErrTruncated marks a store whose final record is incomplete or whose
// tail is not valid frames — the signature of a crash mid-append or of
// on-disk corruption. Opens refuse it (errors.Is-matchable) instead of
// silently serving a prefix; Repair truncates the file back to its last
// good record.
var ErrTruncated = errors.New("truncated or corrupt record at end of store")

// maxFramePayload bounds a frame's declared payload length. A record is
// a few KB; anything near this bound is a corrupt length prefix, and
// refusing it keeps a flipped bit from provoking a GB-sized allocation.
const maxFramePayload = 1 << 26

// frameOverhead is the non-payload bytes of a frame: the length prefix
// up front and the CRC behind.
const frameOverhead = 8

// frameReadBuf caps a frame reader's buffer; smaller files get a
// buffer their own size.
const frameReadBuf = 64 << 10

// frameBuf assembles one frame in a reused buffer: begin reserves the
// length prefix, the payload is appended to b (directly, or through
// Write by an encoder), and seal fills in the prefix and appends the
// CRC, returning the frame ready for a single write.
type frameBuf struct{ b []byte }

func (w *frameBuf) begin() { w.b = append(w.b[:0], 0, 0, 0, 0) }

func (w *frameBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *frameBuf) seal() []byte {
	binary.LittleEndian.PutUint32(w.b[:4], uint32(len(w.b)-4))
	w.b = binary.LittleEndian.AppendUint32(w.b, crc32.ChecksumIEEE(w.b[4:]))
	return w.b
}

// iter pulls values off one shard in append order. The returned *T is
// only valid until the following next call.
type iter[T any] interface {
	next() (*T, bool, error)
	close() error
}

// drain streams every value of it through fn, then closes it.
func drain[T any](it iter[T], fn func(*T) error) error {
	defer it.close()
	for {
		v, ok, err := it.next()
		if err != nil || !ok {
			return err
		}
		if err := fn(v); err != nil {
			return err
		}
	}
}

// frameIter reads the frames of [from, to) of one file through a
// buffer, validating each and decoding its payload into val. at and off
// bracket the frame next returned last; off only ever advances past a
// frame that validated and decoded, so after a refusal it is the
// boundary Repair truncates back to.
type frameIter[T any] struct {
	f      *os.File
	r      *bufio.Reader
	path   string
	decode func([]byte, *T) error
	at     int64
	off    int64
	end    int64
	buf    []byte
	val    T
}

// openFrames opens a frame reader over [from, to) of the file at path;
// to < 0 reads to the end of the file. A missing file reads as empty.
func openFrames[T any](path string, from, to int64, decode func([]byte, *T) error) (*frameIter[T], error) {
	it := &frameIter[T]{path: path, decode: decode, at: from, off: from, end: from}
	if to >= 0 && from >= to {
		return it, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return it, nil
		}
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	if to < 0 {
		st, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("store: statting %s: %w", path, err)
		}
		to = st.Size()
	}
	if from > 0 {
		if _, err := f.Seek(from, io.SeekStart); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("store: seeking %s: %w", path, err)
		}
	}
	it.f, it.end = f, to
	it.r = bufio.NewReaderSize(f, int(min(to-from, frameReadBuf)))
	return it, nil
}

// next validates and decodes the next frame. Any malformed frame —
// short header, implausible length prefix, frame past the end, CRC
// mismatch, undecodable payload — returns an error wrapping
// ErrTruncated that names the file and offset.
func (it *frameIter[T]) next() (*T, bool, error) {
	if it.off >= it.end {
		return nil, false, nil
	}
	var hdr [4]byte
	if it.end-it.off < int64(len(hdr)) {
		return nil, false, it.refuse("short frame header")
	}
	if _, err := io.ReadFull(it.r, hdr[:]); err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", it.path, err)
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[:]))
	if plen == 0 || plen > maxFramePayload {
		return nil, false, it.refuse(fmt.Sprintf("implausible frame length %d", plen))
	}
	if it.off+frameOverhead+plen > it.end {
		return nil, false, it.refuse("frame extends past end of file")
	}
	if int64(cap(it.buf)) < plen+4 {
		it.buf = make([]byte, plen+4)
	}
	it.buf = it.buf[:plen+4]
	if _, err := io.ReadFull(it.r, it.buf); err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", it.path, err)
	}
	body := it.buf[:plen]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(it.buf[plen:]) {
		return nil, false, it.refuse("frame CRC mismatch")
	}
	if err := it.decode(body, &it.val); err != nil {
		return nil, false, it.refuse(err.Error())
	}
	it.at = it.off
	it.off += frameOverhead + plen
	return &it.val, true, nil
}

func (it *frameIter[T]) refuse(what string) error {
	return fmt.Errorf("store: %s: %s at offset %d: %w (run `aipan debug repair <dir>`, or `aipan debug repair --events <dir>` for a flight-recorder log, to truncate to the last good record)",
		it.path, what, it.off, ErrTruncated)
}

func (it *frameIter[T]) close() error {
	if it.f == nil {
		return nil
	}
	return it.f.Close()
}

// repairFrames truncates the framed file at path back to the end of its
// last good frame, returning the bytes cut; keep, when set, sees every
// good frame with its [at, end) span. A missing file repairs as a no-op.
func repairFrames[T any](path string, decode func([]byte, *T) error, keep func(v *T, at, end int64)) (int64, error) {
	it, err := openFrames(path, 0, -1, decode)
	if err != nil {
		return 0, err
	}
	err = drain(it, func(v *T) error {
		if keep != nil {
			keep(v, it.at, it.off)
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrTruncated) {
		return 0, err
	}
	dropped := it.end - it.off
	if dropped <= 0 {
		return 0, nil
	}
	if err := os.Truncate(path, it.off); err != nil {
		return 0, fmt.Errorf("store: truncating %s: %w", path, err)
	}
	return dropped, nil
}
