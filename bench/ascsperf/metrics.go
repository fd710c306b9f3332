package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// promPage is one scrape of ascsd's /metrics: family sums and maxima
// (obs.Parse) plus every histogram series, for quantiles over deltas.
type promPage struct {
	fams obs.Families
	// buckets maps a histogram family name to its series: one entry per
	// `_bucket` line, the le label split out from the others.
	buckets map[string][]bucketLine
}

type bucketLine struct {
	labels map[string]string
	le     float64
	cum    float64
}

// scrape fetches and parses base/metrics.
func scrape(c *http.Client, base string) (*promPage, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parsePage(text)
}

// parsePage parses an exposition page.
func parsePage(text []byte) (*promPage, error) {
	fams, err := obs.Parse(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	p := &promPage{fams: fams, buckets: map[string][]bucketLine{}}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		brace := strings.IndexByte(line, '{')
		if brace < 0 || !strings.HasSuffix(line[:brace], "_bucket") {
			continue
		}
		end := strings.LastIndexByte(line, '}')
		if end < brace {
			return nil, fmt.Errorf("malformed bucket line %q", line)
		}
		labels, err := parseLabels(line[brace+1 : end])
		if err != nil {
			return nil, fmt.Errorf("%v in %q", err, line)
		}
		le, err := strconv.ParseFloat(labels["le"], 64)
		if err != nil {
			return nil, fmt.Errorf("bad le in %q", line)
		}
		delete(labels, "le")
		cum, err := strconv.ParseFloat(strings.TrimSpace(line[end+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad bucket value in %q", line)
		}
		fam := strings.TrimSuffix(line[:brace], "_bucket")
		p.buckets[fam] = append(p.buckets[fam], bucketLine{labels: labels, le: le, cum: cum})
	}
	return p, sc.Err()
}

// parseLabels splits `a="x",b="y"` into a map. Values may hold escaped
// quotes; ascsd's label values never need more.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed labels")
		}
		name := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
			}
			val.WriteByte(rest[i])
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("unterminated label value")
		}
		out[name] = val.String()
		s = strings.TrimPrefix(rest[i+1:], ",")
	}
	return out, nil
}

// sum returns the family's sample sum (0 when absent).
func (p *promPage) sum(name string) float64 { return p.fams[name].Sum }

// hist merges every series of family whose labels match into one
// histogram snapshot in the daemon's stored units (ns for durations:
// scale is the exposition scale, 1e-9 for seconds).
func (p *promPage) hist(family string, scale float64, match func(map[string]string) bool) obs.HistSnap {
	var out obs.HistSnap
	// Each series is cumulative in le order with empty buckets elided, so
	// a bucket's count is its cum minus the previous line's.
	prev := map[string]float64{}
	for _, b := range p.buckets[family] {
		if match != nil && !match(b.labels) {
			continue
		}
		key := fmt.Sprint(b.labels)
		c := b.cum - prev[key]
		prev[key] = b.cum
		i := obs.HistBuckets - 1
		if !math.IsInf(b.le, 1) {
			// Bucket i's inclusive upper bound is 2^i − 1 stored units.
			i = int(math.Round(math.Log2(b.le/scale + 1)))
		}
		out.Buckets[i] += uint64(c)
		out.Count += uint64(c)
	}
	return out
}

// histDelta returns the histogram of observations made between two
// scrapes.
func histDelta(before, after *promPage, family string, scale float64, match func(map[string]string) bool) obs.HistSnap {
	a := after.hist(family, scale, match)
	b := before.hist(family, scale, match)
	var d obs.HistSnap
	for i := range d.Buckets {
		d.Buckets[i] = a.Buckets[i] - b.Buckets[i]
		d.Count += d.Buckets[i]
	}
	return d
}

// delta returns the change of a counter family's sum between scrapes.
func delta(before, after *promPage, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// histQuantileMS returns the tail-rule quantile (capped at q) of a
// nanosecond histogram in milliseconds, with its label and count.
func histQuantileMS(h obs.HistSnap, q float64) (float64, string, int) {
	n := int(h.Count)
	top, ok := tailQuantile(n)
	if !ok {
		return h.Quantile(0.5) / 1e6, "p50", n
	}
	q = min(q, top)
	return h.Quantile(q) / 1e6, pctLabel(q), n
}
