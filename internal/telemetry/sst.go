package telemetry

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"sov/internal/cloud"
)

// Sorted immutable runs are the LSM tree's on-disk level unit. A run file
// is a sequence of ~4 KB data blocks (each optionally deflate-compressed
// through internal/cloud's codec when that saves space), followed by a
// block index (first key, offset, stored/raw lengths, per-block crc), the
// run's bloom filter, and a fixed footer. Point reads consult the bloom,
// binary-search the index, and read exactly one block; range scans read
// only the overlapping blocks — the index is what makes the range query
// "indexed" rather than a file scan.
//
// Every byte of a run is a pure function of the sorted entries it holds,
// so run files are byte-identical across shard/worker counts and across a
// crash-recovery replay.

const (
	runMagic       = "SOVTRUN1"
	runFooterMagic = "SOVTEND1"
	blockTarget    = 4096 // uncompressed data-block payload target
)

// blockMeta is one index entry.
type blockMeta struct {
	firstKey   Key
	compressed bool
	off        uint64
	storedLen  uint32
	rawLen     uint32
	count      uint32
	crc        uint32
}

const blockMetaSize = KeySize + 1 + 8 + 4 + 4 + 4 + 4

// footer layout: indexOff u64 | blockCount u32 | bloomOff u64 | bloomLen
// u32 | entryCount u64 | minKey | maxKey | metaCRC u32 | magic.
const footerSize = 8 + 4 + 8 + 4 + 8 + KeySize + KeySize + 4 + 8

// runWriter streams sorted entries into a run file.
type runWriter struct {
	f       *os.File
	bw      *bufio.Writer
	off     uint64
	block   []byte // current uncompressed block body
	blockN  uint32
	keyBuf  []byte
	index   []blockMeta
	filter  *bloom
	first   Key
	minKey  Key
	maxKey  Key
	count   uint64
	started bool
	written int64
}

func newRunWriter(path string, expectEntries int) (*runWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &runWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), filter: newBloom(expectEntries)}
	if _, err := w.bw.WriteString(runMagic); err != nil {
		f.Close()
		return nil, err
	}
	w.off = uint64(len(runMagic))
	w.written = int64(len(runMagic))
	return w, nil
}

// add appends one entry; keys must arrive in strictly ascending order.
func (w *runWriter) add(k Key, payload []byte) error {
	if !w.started {
		w.minKey = k
		w.started = true
	}
	w.maxKey = k
	if w.blockN == 0 {
		w.first = k
	}
	w.keyBuf = appendKey(w.keyBuf[:0], k)
	w.filter.add(w.keyBuf)
	w.block = append(w.block, w.keyBuf...)
	w.block = binary.AppendUvarint(w.block, uint64(len(payload)))
	w.block = append(w.block, payload...)
	w.blockN++
	w.count++
	if len(w.block) >= blockTarget {
		return w.flushBlock()
	}
	return nil
}

// flushBlock writes the pending block, compressing when it pays.
func (w *runWriter) flushBlock() error {
	if w.blockN == 0 {
		return nil
	}
	body := w.block
	compressed := false
	if c, err := cloud.Compress(body); err == nil && len(c) < len(body)-len(body)/10 {
		body, compressed = c, true
	}
	w.index = append(w.index, blockMeta{
		firstKey:   w.first,
		compressed: compressed,
		off:        w.off,
		storedLen:  uint32(len(body)),
		rawLen:     uint32(len(w.block)),
		count:      w.blockN,
		crc:        crc32.ChecksumIEEE(body),
	})
	if _, err := w.bw.Write(body); err != nil {
		return err
	}
	w.off += uint64(len(body))
	w.written += int64(len(body))
	w.block = w.block[:0]
	w.blockN = 0
	return nil
}

// finish writes index, bloom, and footer, then closes the file. It returns
// the run's metadata for the manifest.
func (w *runWriter) finish() (meta runMeta, err error) {
	if err := w.flushBlock(); err != nil {
		w.f.Close()
		return runMeta{}, err
	}
	indexOff := w.off
	var metaBuf []byte
	for _, bm := range w.index {
		metaBuf = appendKey(metaBuf, bm.firstKey)
		if bm.compressed {
			metaBuf = append(metaBuf, 1)
		} else {
			metaBuf = append(metaBuf, 0)
		}
		metaBuf = binary.LittleEndian.AppendUint64(metaBuf, bm.off)
		metaBuf = binary.LittleEndian.AppendUint32(metaBuf, bm.storedLen)
		metaBuf = binary.LittleEndian.AppendUint32(metaBuf, bm.rawLen)
		metaBuf = binary.LittleEndian.AppendUint32(metaBuf, bm.count)
		metaBuf = binary.LittleEndian.AppendUint32(metaBuf, bm.crc)
	}
	bloomOff := indexOff + uint64(len(metaBuf))
	bloomBytes := w.filter.marshal()
	metaBuf = append(metaBuf, bloomBytes...)

	footer := make([]byte, 0, footerSize)
	footer = binary.LittleEndian.AppendUint64(footer, indexOff)
	footer = binary.LittleEndian.AppendUint32(footer, uint32(len(w.index)))
	footer = binary.LittleEndian.AppendUint64(footer, bloomOff)
	footer = binary.LittleEndian.AppendUint32(footer, uint32(len(bloomBytes)))
	footer = binary.LittleEndian.AppendUint64(footer, w.count)
	footer = appendKey(footer, w.minKey)
	footer = appendKey(footer, w.maxKey)
	crc := crc32.ChecksumIEEE(metaBuf)
	footer = binary.LittleEndian.AppendUint32(footer, crc)
	footer = append(footer, runFooterMagic...)

	if _, err := w.bw.Write(metaBuf); err != nil {
		w.f.Close()
		return runMeta{}, err
	}
	if _, err := w.bw.Write(footer); err != nil {
		w.f.Close()
		return runMeta{}, err
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return runMeta{}, err
	}
	w.written += int64(len(metaBuf) + len(footer))
	if err := w.f.Close(); err != nil {
		return runMeta{}, err
	}
	return runMeta{
		entries: w.count,
		bytes:   w.written,
		minKey:  w.minKey,
		maxKey:  w.maxKey,
		crc:     crc,
	}, nil
}

// runMeta is what the manifest records per run.
type runMeta struct {
	id      uint64
	tier    int
	entries uint64
	bytes   int64
	minKey  Key
	maxKey  Key
	crc     uint32
}

// run is an open immutable run: its index and bloom resident in memory,
// data blocks read on demand.
type run struct {
	meta     runMeta
	f        *os.File
	index    []blockMeta
	filter   *bloom
	scratch  []byte // block read buffer
	inflated []byte // decompression target
}

// openRun loads a run's index and bloom and validates the footer.
func openRun(path string, meta runMeta) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < int64(len(runMagic)+footerSize) {
		f.Close()
		return nil, fmt.Errorf("telemetry: run %s truncated", path)
	}
	footer := make([]byte, footerSize)
	if _, err := f.ReadAt(footer, st.Size()-footerSize); err != nil {
		f.Close()
		return nil, err
	}
	if string(footer[footerSize-8:]) != runFooterMagic {
		f.Close()
		return nil, fmt.Errorf("telemetry: run %s bad footer magic", path)
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	blockCount := binary.LittleEndian.Uint32(footer[8:12])
	bloomOff := binary.LittleEndian.Uint64(footer[12:20])
	bloomLen := binary.LittleEndian.Uint32(footer[20:24])
	entryCount := binary.LittleEndian.Uint64(footer[24:32])
	minKey := decodeKey(footer[32 : 32+KeySize])
	maxKey := decodeKey(footer[32+KeySize : 32+2*KeySize])
	wantCRC := binary.LittleEndian.Uint32(footer[32+2*KeySize : 32+2*KeySize+4])

	// The footer offsets are not crc-covered: bound them by the file before
	// sizing a buffer from them. Each comparison is overflow-free.
	end := uint64(st.Size() - footerSize)
	if indexOff > bloomOff || bloomOff > end || uint64(bloomLen) > end-bloomOff {
		f.Close()
		return nil, fmt.Errorf("telemetry: run %s footer offsets out of range", path)
	}
	metaLen := bloomOff + uint64(bloomLen) - indexOff
	metaBuf := make([]byte, metaLen)
	if _, err := f.ReadAt(metaBuf, int64(indexOff)); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.ChecksumIEEE(metaBuf) != wantCRC {
		f.Close()
		return nil, fmt.Errorf("telemetry: run %s index crc mismatch", path)
	}
	r := &run{meta: meta, f: f}
	r.meta.entries = entryCount
	r.meta.minKey, r.meta.maxKey, r.meta.crc = minKey, maxKey, wantCRC
	idxBuf := metaBuf[:bloomOff-indexOff]
	if len(idxBuf) != int(blockCount)*blockMetaSize {
		f.Close()
		return nil, fmt.Errorf("telemetry: run %s index size mismatch", path)
	}
	r.index = make([]blockMeta, blockCount)
	for i := range r.index {
		b := idxBuf[i*blockMetaSize:]
		r.index[i] = blockMeta{
			firstKey:   decodeKey(b[:KeySize]),
			compressed: b[KeySize] == 1,
			off:        binary.LittleEndian.Uint64(b[KeySize+1:]),
			storedLen:  binary.LittleEndian.Uint32(b[KeySize+9:]),
			rawLen:     binary.LittleEndian.Uint32(b[KeySize+13:]),
			count:      binary.LittleEndian.Uint32(b[KeySize+17:]),
			crc:        binary.LittleEndian.Uint32(b[KeySize+21:]),
		}
	}
	if r.filter = unmarshalBloom(metaBuf[bloomOff-indexOff:]); r.filter == nil {
		f.Close()
		return nil, fmt.Errorf("telemetry: run %s bad bloom", path)
	}
	return r, nil
}

func (r *run) close() error { return r.f.Close() }

// readBlock fetches and (if needed) inflates block i, charging the read to
// st. The returned slice aliases the run's scratch buffers.
func (r *run) readBlock(i int, st *Stats) ([]byte, error) {
	bm := r.index[i]
	if cap(r.scratch) < int(bm.storedLen) {
		r.scratch = make([]byte, bm.storedLen)
	}
	buf := r.scratch[:bm.storedLen]
	if _, err := r.f.ReadAt(buf, int64(bm.off)); err != nil {
		return nil, err
	}
	st.BlocksRead++
	st.RunBytesRead += int64(bm.storedLen)
	if crc32.ChecksumIEEE(buf) != bm.crc {
		return nil, fmt.Errorf("telemetry: run block %d crc mismatch", i)
	}
	if !bm.compressed {
		return buf, nil
	}
	out, err := cloud.Decompress(buf)
	if err != nil {
		return nil, err
	}
	r.inflated = out
	return out, nil
}

// blockFor returns the index of the block that could contain k.
func (r *run) blockFor(k Key) int {
	i := sort.Search(len(r.index), func(i int) bool {
		return k.Less(r.index[i].firstKey)
	})
	return i - 1 // -1 when k precedes the first block
}

// get returns the payload for an exact key. The bloom filter short-
// circuits most absent keys without any block I/O.
func (r *run) get(k Key, keyBuf []byte, st *Stats) ([]byte, bool, error) {
	if k.Less(r.meta.minKey) || r.meta.maxKey.Less(k) {
		return nil, false, nil
	}
	keyBuf = appendKey(keyBuf[:0], k)
	if !r.filter.test(keyBuf) {
		st.BloomSkips++
		return nil, false, nil
	}
	bi := r.blockFor(k)
	if bi < 0 {
		return nil, false, nil
	}
	block, err := r.readBlock(bi, st)
	if err != nil {
		return nil, false, err
	}
	found := false
	var payload []byte
	err = decodeBlock(block, func(ek Key, p []byte) bool {
		if ek == k {
			payload, found = p, true
			return false
		}
		return !k.Less(ek)
	})
	return payload, found, err
}

// scan calls fn for every entry with lo <= key <= hi in key order, reading
// only the blocks that overlap the range.
func (r *run) scan(lo, hi Key, st *Stats, fn func(k Key, payload []byte) bool) error {
	if hi.Less(r.meta.minKey) || r.meta.maxKey.Less(lo) {
		return nil
	}
	bi := r.blockFor(lo)
	if bi < 0 {
		bi = 0
	}
	for ; bi < len(r.index); bi++ {
		if hi.Less(r.index[bi].firstKey) {
			return nil
		}
		block, err := r.readBlock(bi, st)
		if err != nil {
			return err
		}
		stop := false
		err = decodeBlock(block, func(k Key, p []byte) bool {
			if hi.Less(k) {
				stop = true
				return false
			}
			if k.Less(lo) {
				return true
			}
			if !fn(k, p) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// decodeBlock walks a raw block's entries.
func decodeBlock(b []byte, fn func(k Key, payload []byte) bool) error {
	for len(b) > 0 {
		if len(b) < KeySize {
			return fmt.Errorf("telemetry: short block entry")
		}
		k := decodeKey(b)
		b = b[KeySize:]
		pn, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < pn {
			return fmt.Errorf("telemetry: short block payload")
		}
		if !fn(k, b[n:n+int(pn)]) {
			return nil
		}
		b = b[n+int(pn):]
	}
	return nil
}

// runPath names run id's file.
func runPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("run-%06d.sst", id))
}

// iterators for merging runs during compaction.

// runIter walks a whole run sequentially.
type runIter struct {
	r     *run
	st    *Stats
	block []byte
	bi    int
	key   Key
	val   []byte
	done  bool
	err   error
}

func newRunIter(r *run, st *Stats) *runIter {
	it := &runIter{r: r, st: st, bi: -1}
	it.next()
	return it
}

// next advances to the following entry; done is set at end.
func (it *runIter) next() {
	for {
		if len(it.block) == 0 {
			it.bi++
			if it.bi >= len(it.r.index) {
				it.done = true
				return
			}
			b, err := it.r.readBlock(it.bi, it.st)
			if err != nil {
				it.err, it.done = err, true
				return
			}
			// Copy: readBlock reuses the run's scratch buffer and the
			// iterator must survive interleaved reads from sibling runs.
			it.block = append([]byte(nil), b...)
		}
		b := it.block
		if len(b) < KeySize {
			it.err, it.done = fmt.Errorf("telemetry: short iter entry"), true
			return
		}
		it.key = decodeKey(b)
		b = b[KeySize:]
		pn, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < pn {
			it.err, it.done = fmt.Errorf("telemetry: short iter payload"), true
			return
		}
		it.val = b[n : n+int(pn)]
		it.block = b[n+int(pn):]
		return
	}
}

// mergeRuns streams the union of the given runs (newest-wins on equal
// keys, which cannot occur in practice since Seq disambiguates) into a new
// run file via w. Runs must be passed oldest-first.
func mergeRuns(runs []*run, st *Stats, w *runWriter) error {
	iters := make([]*runIter, len(runs))
	for i, r := range runs {
		iters[i] = newRunIter(r, st)
	}
	for {
		best := -1
		for i, it := range iters {
			if it.done {
				if it.err != nil {
					return it.err
				}
				continue
			}
			if best < 0 || it.key.Less(iters[best].key) {
				best = i
			} else if it.key == iters[best].key {
				// Equal keys: the later (newer) run wins; skip the older.
				iters[best].next()
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		if err := w.add(iters[best].key, iters[best].val); err != nil {
			return err
		}
		iters[best].next()
		if iters[best].err != nil && iters[best].done {
			if err := iters[best].err; err != nil {
				return err
			}
		}
	}
}
