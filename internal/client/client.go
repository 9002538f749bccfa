// Package client is the receiving end of the live Skyscraper Broadcasting
// demo: the three service routines of Section 3.3 — an Odd Loader, an
// Even Loader, and a Video Player — over real sockets. Each loader joins
// its transmission groups' channels in video order, always at a broadcast
// beginning; the player verifies every byte against the deterministic
// content function and checks the jitter-freeness the paper proves.
//
// The paper proves that guarantee over a lossless channel; the session
// additionally survives a lossy one: gaps heal off the proactive parity
// stripe, then the multicast-first NACK ladder, then unicast REPAIR round
// trips with jittered backoff, each bounded by the chunk's playback
// deadline, and a broken control connection is re-dialed with backoff.
//
// A session is a one-viewer viewer.Mux: the same cohort loader, ingress
// ladder, and recovery plane that emulate metropolitan audiences receive
// for the single viewer here. This package keeps the session's public
// names.
package client

import "skyscraper/internal/viewer"

// Config parameterizes one viewing session.
type Config = viewer.SessionConfig

// Stats reports a completed session.
type Stats = viewer.SessionStats

// Watch runs a full viewing session: handshake, two-loader reception of
// every fragment, loss recovery, byte verification, and jitter and buffer
// accounting. It returns when the whole video has been received and its
// playback window has passed.
func Watch(cfg Config) (*Stats, error) { return viewer.Watch(cfg) }
