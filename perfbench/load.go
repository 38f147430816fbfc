package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"muve"
	"muve/internal/serve"
)

// minPairs is the least number of utterances the latency phase answers
// (one plot and one voice request each): p95 needs ten samples beyond
// it, so 200 per modality.
const minPairs = 200

// sample is one request as the client saw it.
type sample struct {
	transcript string
	voice      bool
	// latency is the request time, including SVG rendering for plots.
	latency time.Duration
	// do is the time inside engine.Do alone.
	do     time.Duration
	ans    *muve.Answer
	source serve.Source
	err    error
	// svgBytes is the size of the rendered plot (plots only).
	svgBytes int
	// trace is the request's traced record (traced runs only).
	trace *reqTrace
	// end is when the request completed.
	end time.Time
}

// ask sends one request through the engine and renders the answer as
// muveserver's /ask returns it: SVG for plots, the transcript for voice.
// A traced request (r non-nil) times the rendering as a span.
func ask(ctx context.Context, eng *serve.Engine, transcript string, voice bool, r *reqTrace) sample {
	s := sample{transcript: transcript, voice: voice, trace: r}
	req := serve.Request{Transcript: transcript}
	if voice {
		req.Mode = serve.ModeVoice
	}
	start := time.Now()
	resp, err := eng.Do(ctx, req)
	s.do = time.Since(start)
	if err == nil {
		ans, ok := resp.Value.(*muve.Answer)
		if !ok {
			err = fmt.Errorf("engine answered %T, want *muve.Answer", resp.Value)
		} else {
			s.ans, s.source = ans, resp.Source
			if !voice {
				render := func() { s.svgBytes = len(ans.SVG()) }
				if r == nil {
					render()
				} else {
					r.time(layerSVG, render)
				}
			}
		}
	}
	s.end = time.Now()
	s.latency = s.end.Sub(start)
	s.err = err
	return s
}

// phaseStats are the runtime counters over one phase.
type phaseStats struct {
	mallocs uint64
	gcs     uint32
}

// latencyPhase is one closed-loop client alternating a plot and a voice
// request per utterance, like a voice user who waits for each answer.
// It runs for at least dur and at least minPairs utterances, but stops
// at maxDur or when the sequence ends.
func latencyPhase(ctx context.Context, seq []string, dur, maxDur time.Duration, pairs int,
	do func(ctx context.Context, transcript string, voice bool) sample) ([]sample, phaseStats) {
	out := make([]sample, 0, 2*len(seq))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, tr := range seq {
		el := time.Since(start)
		if (i >= pairs && el >= dur) || el >= maxDur {
			break
		}
		out = append(out, do(ctx, tr, false), do(ctx, tr, true))
	}
	runtime.ReadMemStats(&after)
	return out, phaseStats{
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     after.NumGC - before.NumGC,
	}
}

// minThroughputPairs is the least number of utterances the throughput
// phase answers, so asks_per_s of the slowest workload still averages
// 200 requests.
const minThroughputPairs = 100

// throughputClients is the closed-loop client count of the throughput
// phase: the runner's core count.
const throughputClients = 2

// throughputWindows is the number of windows asks_per_s takes the
// median over.
const throughputWindows = 4

// throughputPhase runs throughputClients closed-loop clients over fresh
// utterances, each alternating plot and voice requests, for at least dur
// and pairs utterances, but no longer than maxDur. It returns every
// request and the completion rate: the median, over throughputWindows
// equal windows of the phase, of requests completed per second, so one
// noisy stretch of the phase moves one window, not the figure.
func throughputPhase(ctx context.Context, seq []string, dur, maxDur time.Duration, pairs int,
	do func(ctx context.Context, transcript string, voice bool) sample) ([]sample, float64) {
	var next atomic.Int64
	per := make([][]sample, throughputClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				el := time.Since(start)
				if (el >= dur && int(next.Load()) >= pairs) || el >= maxDur {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				per[c] = append(per[c], do(ctx, seq[i], false), do(ctx, seq[i], true))
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(start) / throughputWindows
	rates := make([]float64, throughputWindows)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
		for _, r := range s {
			rates[min(int(r.end.Sub(start)/window), throughputWindows-1)] += 1 / window.Seconds()
		}
	}
	return out, median(rates)
}
