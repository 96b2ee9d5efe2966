package api

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// benchSegments is the size of the benchmarked response: a busy tile.
const benchSegments = 500

func benchWindowResponse() *WindowResponse {
	rng := rand.New(rand.NewSource(1992))
	r := &WindowResponse{Window: RectJSON{4096, 4096, 4607, 4607}, Count: benchSegments, Cache: "miss"}
	r.Stats = StatsJSON{DiskAccesses: 25, SegComps: 440, NodeComps: 680, PoolHits: 40, PoolRequests: 65, WallMicros: 45}
	for i := 0; i < benchSegments; i++ {
		x, y := 4096+rng.Int31n(512), 4096+rng.Int31n(512)
		r.Segments = append(r.Segments, SegmentJSON{uint32(rng.Intn(50000)), x, y, x + rng.Int31n(20), y + rng.Int31n(20)})
	}
	return r
}

// perSegment reports the run's time per encoded or decoded segment.
func perSegment(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchSegments, "ns/segment")
}

var benchSink []byte

func BenchmarkEncodeWindowResponse(b *testing.B) {
	r := benchWindowResponse()
	b.Run("wire", func(b *testing.B) {
		buf := appendWindowResponse(nil, r) // warm: sized by a first encode
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendWindowResponse(buf[:0], r)
		}
		benchSink = buf
		perSegment(b)
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = json.Marshal(r)
		}
		perSegment(b)
	})
}

func BenchmarkDecodeWindowResponse(b *testing.B) {
	body, err := appendJSON(nil, benchWindowResponse())
	if err != nil {
		b.Fatal(err)
	}
	for name, decode := range map[string]func([]byte, any) error{"wire": decodeJSON, "encoding-json": json.Unmarshal} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var r WindowResponse
				if err := decode(body, &r); err != nil || len(r.Segments) != benchSegments {
					b.Fatal(err, len(r.Segments))
				}
			}
			perSegment(b)
		})
	}
}
