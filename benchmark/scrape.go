package main

import (
	"encoding/json"
	"net/http"

	"drainnet/internal/telemetry"
)

// scrape is one reading of the child's /v1/metrics?format=json, the
// exposition internal/cluster routes on.
type scrape []telemetry.MetricPoint

func scrapeMetrics(client *http.Client, base string) (scrape, error) {
	body, err := getBody(client, http.MethodGet, base+"/v1/metrics?format=json", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return parseScrape(body)
}

func parseScrape(body []byte) (scrape, error) {
	var doc struct {
		Items scrape `json:"items"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	return doc.Items, nil
}

// hist merges every series of the histogram family name whose labels
// include all of match (given as alternating key, value).
func (s scrape) hist(name string, match ...string) telemetry.HistogramSnapshot {
	var merged telemetry.HistogramSnapshot
next:
	for _, p := range s {
		if p.Name != name || p.Histogram == nil {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if p.Labels[match[i]] != match[i+1] {
				continue next
			}
		}
		h := p.Histogram
		if merged.Counts == nil {
			merged.Upper, merged.Counts = h.Upper, make([]uint64, len(h.Counts))
		}
		if len(h.Counts) != len(merged.Counts) {
			continue // another bucket layout: skip it rather than merge it wrongly
		}
		for i, c := range h.Counts {
			merged.Counts[i] += c
		}
		merged.Count += h.Count
		merged.Sum += h.Sum
	}
	return merged
}

// value adds the values of every counter or gauge series named name.
func (s scrape) value(name string) float64 {
	var total float64
	for _, p := range s {
		if p.Name == name {
			total += p.Value
		}
	}
	return total
}

// gainedHist is the observations a histogram gained between two scrapes.
func gainedHist(before, after scrape, name string, match ...string) telemetry.HistogramSnapshot {
	b, a := before.hist(name, match...), after.hist(name, match...)
	if len(b.Counts) != len(a.Counts) {
		return a // nothing scraped before
	}
	a.Counts = append([]uint64(nil), a.Counts...)
	for i, c := range b.Counts {
		a.Counts[i] -= c
	}
	a.Count -= b.Count
	a.Sum -= b.Sum
	return a
}

// meanMs is the mean of a histogram of seconds, in milliseconds.
func meanMs(h telemetry.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count) * 1e3
}
