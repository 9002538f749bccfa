package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"skyscraper/internal/wire"
)

// probe is the traced run's extra subscriber: it joins a fixed set of
// groups through the public control verbs and times every data datagram
// it receives against the instant the server's schedule says it was due
// — repetition n of channel i, chunk c, is due at
// epoch + n·period_i + c·spacing_i, period_i = size_i·unit and
// spacing_i = period_i / chunks_i, as announced by Welcome.
type probe struct {
	conn  net.Conn
	udp   *net.UDPConn
	w     *wire.Welcome
	done  chan struct{}
	mu    sync.Mutex
	late  []float64 // milliseconds, one per data datagram
	wg    sync.WaitGroup
	rerr  error
	chunk []int64 // chunks per fragment, channel order
}

// startProbe dials the server, joins every channel of the first videos
// catalog entries, and starts timing deliveries.
func startProbe(addr string, videos int) (*probe, error) {
	udp, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	_ = udp.SetReadBuffer(4 << 20)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		udp.Close()
		return nil, err
	}
	p := &probe{conn: conn, udp: udp, done: make(chan struct{})}
	if err := p.handshake(videos); err != nil {
		p.closeSockets()
		return nil, err
	}
	p.wg.Add(1)
	go p.read()
	return p, nil
}

func (p *probe) handshake(videos int) error {
	_ = p.conn.SetDeadline(time.Now().Add(5 * time.Second))
	defer p.conn.SetDeadline(time.Time{})
	r := bufio.NewReader(p.conn)
	if err := wire.WriteControl(p.conn, &wire.Control{Kind: wire.KindHello}); err != nil {
		return err
	}
	m, err := wire.ReadControl(r)
	if err != nil {
		return fmt.Errorf("probe welcome: %w", err)
	}
	if m.Kind != wire.KindWelcome || m.Welcome == nil {
		return fmt.Errorf("probe: expected welcome, got %q", m.Kind)
	}
	p.w = m.Welcome
	for _, s := range p.w.SizeUnits {
		p.chunk = append(p.chunk, s*int64(p.w.BytesPerUnit)/int64(p.w.ChunkBytes))
	}
	if videos > p.w.Videos {
		videos = p.w.Videos
	}
	port := p.udp.LocalAddr().(*net.UDPAddr).Port
	for v := 0; v < videos; v++ {
		for ch := 1; ch <= p.w.ChannelsPerVideo; ch++ {
			join := &wire.Control{Kind: wire.KindJoin, Video: v, Channel: ch, Port: port}
			if err := wire.WriteControl(p.conn, join); err != nil {
				return err
			}
			reply, err := wire.ReadControl(r)
			if err != nil {
				return fmt.Errorf("probe join: %w", err)
			}
			if reply.Kind != wire.KindJoined {
				return fmt.Errorf("probe join %d/%d: %s %s", v, ch, reply.Kind, reply.Error)
			}
		}
	}
	return nil
}

func (p *probe) read() {
	defer p.wg.Done()
	buf := make([]byte, 64<<10)
	epoch := p.w.EpochUnixNano
	unit := p.w.UnitNanos
	for {
		n, err := p.udp.Read(buf)
		now := time.Now().UnixNano()
		if err != nil {
			select {
			case <-p.done:
			default:
				p.rerr = err
			}
			return
		}
		frame := buf[:n]
		if wire.IsParity(frame) {
			continue
		}
		_, ch, seq, off, ok := wire.PeekID(frame)
		if !ok || int(ch) < 1 || int(ch) > len(p.chunk) {
			continue
		}
		size := p.w.SizeUnits[ch-1]
		period := size * unit
		spacing := period / p.chunk[ch-1]
		due := epoch + int64(seq)*period + int64(off)/int64(p.w.ChunkBytes)*spacing
		p.mu.Lock()
		p.late = append(p.late, float64(now-due)/1e6)
		p.mu.Unlock()
	}
}

func (p *probe) closeSockets() {
	p.conn.Close()
	p.udp.Close()
}

// stop ends the probe and returns the delivery lateness samples (ms).
func (p *probe) stop() ([]float64, error) {
	close(p.done)
	p.closeSockets()
	p.wg.Wait()
	if p.rerr != nil && !errors.Is(p.rerr, net.ErrClosed) {
		return nil, p.rerr
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]float64(nil), p.late...)
	sort.Float64s(out)
	return out, nil
}
