package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/geom"
)

// Binary file format: a fixed little-endian header followed by packed
// float64 coordinates. The format exists so the cmd/ tools can hand large
// generated datasets between processes without re-generating them, and so
// the file-backed Dataset can stream passes at disk speed the way the
// paper's sequential scans do.
//
//	offset 0: magic "DBS1" (4 bytes)
//	offset 4: uint32 dims
//	offset 8: uint64 count
//	offset 16: count*dims float64s, row major
const binaryMagic = "DBS1"

// WriteBinary streams ds into w in the binary format (one pass).
func WriteBinary(w io.Writer, ds Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ds.Dims()))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(ds.Len()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8*ds.Dims())
	err := ds.Scan(func(p geom.Point) error {
		for i, v := range p {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		_, werr := bw.Write(buf)
		return werr
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// SaveBinary writes ds to the named file.
func SaveBinary(path string, ds Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinary loads a binary-format dataset fully into memory.
func ReadBinary(r io.Reader) (*InMemory, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	dims := int(binary.LittleEndian.Uint32(hdr[0:4]))
	count := binary.LittleEndian.Uint64(hdr[4:12])
	if dims <= 0 || dims > maxDims {
		return nil, fmt.Errorf("dataset: implausible dims %d", dims)
	}
	if count == 0 {
		return nil, errors.New("dataset: empty binary dataset")
	}
	// The header's count is untrusted until the rows arrive: preallocate
	// exactly for up to maxPrealloc points (24 MiB of headers) and let
	// larger datasets grow, so a corrupt count cannot demand terabytes.
	pts := make([]geom.Point, 0, min(count, maxPrealloc))
	row := make([]byte, 8*dims)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, fmt.Errorf("dataset: reading point %d: %w", i, err)
		}
		p := make(geom.Point, dims)
		for j := range p {
			p[j] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:]))
		}
		pts = append(pts, p)
	}
	return NewInMemory(pts)
}

// LoadBinary reads the named binary dataset file into memory.
func LoadBinary(path string) (*InMemory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// FileBacked is a Dataset that streams passes directly from a binary file,
// holding only one point in memory at a time. It models the paper's setting
// of datasets too large to materialize. Each scan opens its own handle and
// the pass counter is atomic, so one FileBacked may serve concurrent scans.
type FileBacked struct {
	path   string
	dims   int
	count  int
	passes atomic.Int64
}

// maxPrealloc bounds how many points ReadBinary allocates for before
// the rows that a header promises have arrived.
const maxPrealloc = 1 << 20

// maxDims bounds the dimensionality a binary header may declare; it
// rejects corrupt headers before they size any buffer.
const maxDims = 1 << 16

// OpenFile validates a binary dataset file and returns a FileBacked view
// over it. Beyond the header, the file's size must be exactly the header
// plus count·dims float64s: a truncated or padded file is rejected here
// rather than registering fine and failing every later pass.
func OpenFile(path string) (*FileBacked, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("dataset: reading header of %s: %w", path, err)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("dataset: %s: bad magic %q", path, hdr[:4])
	}
	dims := uint64(binary.LittleEndian.Uint32(hdr[4:8]))
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if dims == 0 || count == 0 {
		return nil, fmt.Errorf("dataset: %s: empty or malformed", path)
	}
	if dims > maxDims {
		return nil, fmt.Errorf("dataset: %s: implausible dims %d", path, dims)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	rowBytes := 8 * dims
	if count > (math.MaxInt64-16)/rowBytes {
		return nil, fmt.Errorf("dataset: %s: implausible count %d", path, count)
	}
	if want := int64(16 + count*rowBytes); st.Size() != want {
		return nil, fmt.Errorf("dataset: %s: file is %d bytes, header promises %d (%d points of %d dims)",
			path, st.Size(), want, count, dims)
	}
	return &FileBacked{path: path, dims: int(dims), count: int(count)}, nil
}

// Scan implements Dataset by streaming the file once.
func (fb *FileBacked) Scan(fn func(p geom.Point) error) error {
	fb.passes.Add(1)
	f, err := os.Open(fb.path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	if _, err := br.Discard(16); err != nil {
		return err
	}
	row := make([]byte, 8*fb.dims)
	p := make(geom.Point, fb.dims)
	for i := 0; i < fb.count; i++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return fmt.Errorf("dataset: %s: point %d: %w", fb.path, i, err)
		}
		for j := range p {
			p[j] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:]))
		}
		if err := fn(p); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
	}
	return nil
}

// Len implements Dataset.
func (fb *FileBacked) Len() int { return fb.count }

// Dims implements Dataset.
func (fb *FileBacked) Dims() int { return fb.dims }

// Passes implements Dataset.
func (fb *FileBacked) Passes() int { return int(fb.passes.Load()) }

// WriteCSV streams ds as comma-separated rows, one point per line, for
// interoperability with plotting tools.
func WriteCSV(w io.Writer, ds Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	err := ds.Scan(func(p geom.Point) error {
		for i, v := range p {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		return bw.WriteByte('\n')
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses comma-separated rows into an in-memory dataset. Blank
// lines and lines starting with '#' are skipped.
//
// A read error wins over a parse error: on a failed read the scanner still
// hands over the cut-off last line, and a truncated number there must not
// mask why the input stopped (a capped request body, for one).
func ReadCSV(r io.Reader) (*InMemory, error) {
	er := &readErr{r: r}
	sc := bufio.NewScanner(er)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var pts []geom.Point
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		p := make(geom.Point, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				if er.err != nil {
					return nil, er.err
				}
				return nil, fmt.Errorf("dataset: csv line %d field %d: %w", line, i+1, err)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewInMemory(pts)
}

// readErr remembers the first read error other than io.EOF.
type readErr struct {
	r   io.Reader
	err error
}

func (e *readErr) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}
