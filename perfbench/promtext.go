package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"roboads/internal/telemetry"
)

// samples is one scrape of Prometheus text exposition: sample name
// (with its inline labels, as exposed) to value. Histograms appear as
// their _sum and _count samples; buckets are skipped.
type samples map[string]float64

func parseProm(r io.Reader) (samples, error) {
	out := make(samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeRegistry reads an in-process registry through the same
// exposition a server's /metrics endpoint serves.
func scrapeRegistry(reg *telemetry.Registry) (samples, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

// scrapeURL fetches and parses a server's /metrics.
func scrapeURL(ctx context.Context, base string) (samples, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}

// delta is after minus before, sample by sample.
func (after samples) delta(before samples) samples {
	out := make(samples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// histMean is a histogram's mean (sum/count) scaled by unit and its
// observation count; 0, 0 when it saw none.
func (s samples) histMean(name string, unit float64) (float64, int) {
	n := s[name+"_count"]
	if n <= 0 {
		return 0, 0
	}
	return s[name+"_sum"] / n * unit, int(n)
}
