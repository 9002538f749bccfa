package server

import (
	"sync/atomic"

	"skyscraper/internal/content"
	"skyscraper/internal/core"
	"skyscraper/internal/metrics"
	"skyscraper/internal/wire"
)

// frameCache exploits the paper's central observation — channel i
// rebroadcasts the same fragment forever — to make the per-chunk broadcast
// cost approach a single patched header word. Everything in a chunk's wire
// frame depends only on (video, channel, offset); the sole per-repetition
// field is Seq, which the payload CRC deliberately excludes. So the cache
// keeps, per (video, channel, chunk):
//
//   - the payload CRC, always (4 bytes per chunk), so a non-resident chunk
//     re-encodes without rehashing its payload;
//   - the fully encoded frame, while the configured byte budget lasts, so
//     a resident chunk re-broadcasts with a 4-byte wire.PatchSeq and zero
//     allocation.
//
// Residency is first-come: frames are built lazily on first broadcast (or
// first repair) and stay forever — the working set is the whole catalog
// and every chunk repeats every period, so there is nothing to evict to.
// The unicast REPAIR path reads payload bytes straight out of resident
// frames; an egress shard only ever writes the 4 Seq bytes of its own
// channels' frames, so the two never touch the same memory.
type frameCache struct {
	chunkBytes int
	// budget caps the total bytes of resident encoded frames; <= 0 means
	// no frames are cached (CRCs still are).
	budget int64
	used   atomic.Int64

	hits   metrics.AtomicCounter
	misses metrics.AtomicCounter

	// chans is indexed [video*K + (channel-1)]; built once, read-only.
	chans []*channelCache
	k     int

	// fecGroup is the parity stripe width G (0 = no stripe); nparity how
	// many parity frames each group carries (1 = XOR, 2 = RS P+Q). A
	// parity frame is as repetition-invariant as the chunks it covers —
	// a pure function of (video, channel, group) — so it gets the same
	// treatment: CRC always cached, encoded frame resident while the
	// budget lasts, Seq patched per send.
	fecGroup int
	nparity  int
}

// channelCache is one channel's slice of the cache.
type channelCache struct {
	video   uint16
	channel uint16
	// base is the absolute byte offset of the channel's fragment within
	// the video; total is the fragment size in bytes.
	base  int64
	total uint32
	// crcs[c] holds crcSet|crc once chunk c's payload CRC is known; zero
	// means not yet computed. Writes of the same value may race benignly.
	crcs []atomic.Uint64
	// frames[c] holds chunk c's encoded frame once resident.
	frames []atomic.Pointer[[]byte]
	// Parity slots, indexed [group*nparity + parityIndex]; empty when the
	// stripe is off.
	pcrcs   []atomic.Uint64
	pframes []atomic.Pointer[[]byte]
}

// crcSet marks a crcs slot as populated (a CRC of zero is legitimate).
const crcSet = 1 << 32

// newFrameCache lays out the cache for a scheme: one channelCache per
// (video, channel), chunk slots sized from the fragment geometry, plus
// nparity parity slots per stripe group when fecGroup > 0.
func newFrameCache(sch *core.Scheme, bytesPerUnit, chunkBytes int, budget int64, fecGroup, nparity int) *frameCache {
	k := sch.K()
	videos := sch.Config().Videos
	if fecGroup <= 0 {
		fecGroup, nparity = 0, 0
	}
	fc := &frameCache{chunkBytes: chunkBytes, budget: budget, k: k,
		chans: make([]*channelCache, videos*k), fecGroup: fecGroup, nparity: nparity}
	sizes := sch.Sizes()
	for v := 0; v < videos; v++ {
		var base int64
		for i := 1; i <= k; i++ {
			total := int(sizes[i-1]) * bytesPerUnit
			chunks := total / chunkBytes
			cc := &channelCache{
				video:   uint16(v),
				channel: uint16(i),
				base:    base,
				total:   uint32(total),
				crcs:    make([]atomic.Uint64, chunks),
				frames:  make([]atomic.Pointer[[]byte], chunks),
			}
			if fecGroup > 0 {
				groups := (chunks + fecGroup - 1) / fecGroup
				cc.pcrcs = make([]atomic.Uint64, groups*nparity)
				cc.pframes = make([]atomic.Pointer[[]byte], groups*nparity)
			}
			fc.chans[v*k+i-1] = cc
			base += int64(total)
		}
	}
	return fc
}

// channel returns the cache slice for (video v, channel i).
func (fc *frameCache) channel(v, i int) *channelCache { return fc.chans[v*fc.k+i-1] }

// CacheStats reports the frame cache's activity and occupancy.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Bytes is the resident encoded-frame footprint; Budget its cap.
	Bytes  int64 `json:"bytes"`
	Budget int64 `json:"budget"`
}

func (fc *frameCache) stats() CacheStats {
	return CacheStats{
		Hits:   fc.hits.Value(),
		Misses: fc.misses.Value(),
		Bytes:  fc.used.Load(),
		Budget: fc.budget,
	}
}

// crc returns chunk c's cached payload CRC.
func (cc *channelCache) crc(c int) (uint32, bool) {
	v := cc.crcs[c].Load()
	return uint32(v), v&crcSet != 0
}

// encode regenerates chunk c's frame into dst (reusing its capacity):
// payload from the content function, CRC from the cache when present —
// computed and cached when not. Seq is left zero; callers patch it.
func (cc *channelCache) encode(fc *frameCache, c int, dst, payload []byte) []byte {
	off := c * fc.chunkBytes
	content.Fill(payload, int(cc.video), cc.base+int64(off))
	crc, ok := cc.crc(c)
	if !ok {
		crc = wire.PayloadCRC(payload)
		cc.crcs[c].Store(crcSet | uint64(crc))
	}
	ch := wire.Chunk{
		Video:   cc.video,
		Channel: cc.channel,
		Offset:  uint32(off),
		Total:   cc.total,
		Payload: payload,
	}
	// chunkBytes <= wire.MaxPayload is validated at server construction,
	// so EncodeWithCRC cannot fail.
	frame, _ := ch.EncodeWithCRC(dst[:0], crc)
	return frame
}

// acquire returns chunk c's encoded frame: the resident one on a hit, or
// a fresh encode on a miss — installed into the cache while the budget
// lasts, otherwise built in the caller's scratch buffer. The returned
// frame's Seq field is unspecified; broadcast callers must wire.PatchSeq
// it, repair callers read only the payload. Only the owning egress shard
// may patch a resident frame.
func (fc *frameCache) acquire(cc *channelCache, c int, scratch *frameScratch) []byte {
	slot := &cc.frames[c]
	if p := slot.Load(); p != nil {
		fc.hits.Inc()
		return *p
	}
	fc.misses.Inc()
	if fc.budget > 0 {
		// Reserve first, encode after: concurrent misses may each reserve,
		// but whoever loses backs its reservation out, so occupancy never
		// overshoots the budget by more than the in-flight encodes.
		size := int64(wire.EncodedSize(fc.chunkBytes))
		if fc.used.Add(size) <= fc.budget {
			frame := cc.encode(fc, c, make([]byte, 0, size), scratch.payload)
			if slot.CompareAndSwap(nil, &frame) {
				return frame
			}
			// Another goroutine (a concurrent repair) installed first;
			// theirs is canonical and ours returns its reservation.
			fc.used.Add(-size)
			return *slot.Load()
		}
		fc.used.Add(-size)
	}
	scratch.frame = cc.encode(fc, c, scratch.frame, scratch.payload)
	return scratch.frame
}

// groupCount is how many data chunks stripe group g of this channel
// covers (the tail group may be short).
func (cc *channelCache) groupCount(fc *frameCache, g int) int {
	count := len(cc.frames) - g*fc.fecGroup
	if count > fc.fecGroup {
		count = fc.fecGroup
	}
	return count
}

// encodeParity regenerates the parity frame (group g, index pi) into
// dst, folding the group's chunk payloads — read straight out of
// resident data frames where the cache holds them, regenerated into
// scratch.tmp where it does not — so the common steady-state encode is
// cache-resident and allocation-free. Seq is left zero; callers patch
// it, exactly as for data frames.
func (cc *channelCache) encodeParity(fc *frameCache, g, pi int, dst []byte, scratch *parityScratch) []byte {
	count := cc.groupCount(fc, g)
	payload := wire.AppendParityPayload(scratch.payload[:0], count, nil)
	payload = payload[:len(payload)+fc.chunkBytes]
	block := payload[len(payload)-fc.chunkBytes:]
	clear(block)
	first := g * fc.fecGroup
	off := first * fc.chunkBytes
	for j := 0; j < count; j++ {
		src := scratch.tmp
		if p := cc.frames[first+j].Load(); p != nil {
			src = (*p)[wire.HeaderSize:]
		} else {
			content.Fill(scratch.tmp, int(cc.video), cc.base+int64((first+j)*fc.chunkBytes))
		}
		if pi == 0 {
			wire.XorAccum(block, src)
		} else {
			wire.GfMulAccum(block, src, wire.GfExpPow(j))
		}
	}
	slot := g*fc.nparity + pi
	crc64 := cc.pcrcs[slot].Load()
	crc := uint32(crc64)
	if crc64&crcSet == 0 {
		crc = wire.PayloadCRC(payload)
		cc.pcrcs[slot].Store(crcSet | uint64(crc))
	}
	// The payload is bounded by ParityOverhead(MaxFecGroup, chunkBytes)
	// and chunkBytes <= wire.MaxPayload is validated at construction, so
	// the encoder cannot fail.
	frame, _ := wire.EncodeParityFrame(dst[:0], cc.video, cc.channel, 0, uint32(off), cc.total, uint8(pi), payload, crc)
	return frame
}

// acquireParity returns the encoded parity frame for (group g, index
// pi), mirroring acquire: resident hit, budget-bounded install on miss,
// caller scratch when the budget is spent. The returned frame's Seq is
// unspecified; broadcast callers wire.PatchSeq it.
func (fc *frameCache) acquireParity(cc *channelCache, g, pi int, scratch *parityScratch) []byte {
	slot := &cc.pframes[g*fc.nparity+pi]
	if p := slot.Load(); p != nil {
		fc.hits.Inc()
		return *p
	}
	fc.misses.Inc()
	if fc.budget > 0 {
		size := int64(wire.EncodedSize(wire.ParityOverhead(cc.groupCount(fc, g), fc.chunkBytes)))
		if fc.used.Add(size) <= fc.budget {
			frame := cc.encodeParity(fc, g, pi, make([]byte, 0, size), scratch)
			if slot.CompareAndSwap(nil, &frame) {
				return frame
			}
			fc.used.Add(-size)
			return *slot.Load()
		}
		fc.used.Add(-size)
	}
	scratch.frame = cc.encodeParity(fc, g, pi, scratch.frame, scratch)
	return scratch.frame
}

// frameScratch is a caller's reusable build space for non-resident
// chunks: a payload buffer for the content function and a frame buffer
// for the encoder. Each wheel entry and each control connection owns one,
// so cache misses cost no steady-state allocation either.
type frameScratch struct {
	payload []byte
	frame   []byte
}

func newFrameScratch(chunkBytes int) *frameScratch {
	return &frameScratch{
		payload: make([]byte, chunkBytes),
		frame:   make([]byte, 0, wire.EncodedSize(chunkBytes)),
	}
}

// parityScratch is the parity encoder's reusable build space: the
// assembled stripe payload, a regeneration buffer for non-resident
// chunk payloads, and a frame buffer for budget-spent encodes.
type parityScratch struct {
	payload []byte
	tmp     []byte
	frame   []byte
}

func newParityScratch(chunkBytes int) *parityScratch {
	size := wire.ParityOverhead(wire.MaxFecGroup, chunkBytes)
	return &parityScratch{
		payload: make([]byte, 0, size),
		tmp:     make([]byte, chunkBytes),
		frame:   make([]byte, 0, wire.EncodedSize(size)),
	}
}
