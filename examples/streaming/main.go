// Streaming: serve a trained model while the graph evolves under live edge
// updates — the paper's latency-constrained scenario (§IV-B8) pushed all
// the way through the serving stack. The example trains a tiny GT, starts
// the HTTP service in-process, streams mutation batches through POST
// /update (which applies each batch and re-preprocesses the mutated graph
// once), and then predicts on the mutated graph, which must be a cache hit
// on the representation /update published.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"mega"
	"mega/internal/datasets"
	"mega/internal/graph"
	"mega/internal/models"
	"mega/internal/serve"
	"mega/internal/train"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "streaming:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("streaming", flag.ContinueOnError)
	n := fs.Int("n", 500, "vertices in the evolving graph")
	updates := fs.Int("updates", 200, "edge updates to stream")
	batch := fs.Int("batch", 8, "mutations per /update request")
	seed := fs.Int64("seed", 6, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Train a small checkpoint; the serving layer only needs vocabularies
	// that cover the streamed graph's (all-zero) features.
	ds := datasets.ZINC(datasets.Config{TrainSize: 16, ValSize: 8, TestSize: 1, Seed: 11})
	res, err := train.Run(ds, train.Options{
		Model: "GT", Engine: models.EngineMega,
		Dim: 16, Layers: 1, Heads: 2, BatchSize: 8, Epochs: 1, Seed: 11,
	})
	if err != nil {
		return err
	}
	s, err := serve.New(res.Model, res.Checkpoint(ds.Name), serve.Options{MaxBatch: 4})
	if err != nil {
		return err
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %s at %s\n", ds.Name, base)

	// The evolving graph starts as a scale-free topology. The client keeps
	// its own canonical edge list in the maintainer's successor order —
	// removes compact preserving order, adds append as (min,max) — so its
	// reconstruction of the mutated graph fingerprints identically to the
	// server's published representation.
	rng := mega.NewRand(*seed)
	g := graph.BarabasiAlbert(rng, *n, 3)
	edges := make([][2]int32, g.NumEdges())
	for i := range edges {
		e := g.EdgeAt(i)
		edges[i] = [2]int32{e.Src, e.Dst}
	}
	fmt.Printf("initial graph: %d vertices, %d edges\n\n", *n, len(edges))

	req := serve.UpdateRequest{
		Base: &serve.GraphRequest{NumNodes: *n, Edges: edges},
	}
	var (
		fingerprint  string
		total, worst time.Duration
		batches      int
	)
	applied := 0
	for applied < *updates {
		var removes, adds [][2]int32
		for len(removes)+len(adds) < *batch && applied+len(removes)+len(adds) < *updates {
			if rng.Intn(5) == 4 && len(edges) > len(removes)+1 {
				e := edges[rng.Intn(len(edges))]
				dup := false
				for _, r := range removes {
					if r == e {
						dup = true
					}
				}
				if !dup {
					removes = append(removes, e)
				}
				continue
			}
			u, v := int32(rng.Intn(*n)), int32(rng.Intn(*n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			pair := [2]int32{u, v}
			present := false
			for _, e := range edges {
				if e == pair || (e[0] == pair[1] && e[1] == pair[0]) {
					present = true
					break
				}
			}
			for _, a := range adds {
				if a == pair {
					present = true
				}
			}
			for _, r := range removes {
				if r == pair || (r[0] == pair[1] && r[1] == pair[0]) {
					present = true
				}
			}
			if !present {
				adds = append(adds, pair)
			}
		}
		req.Remove, req.Add = removes, adds
		start := time.Now()
		var up serve.UpdateResponse
		if err := postJSON(base+"/update", req, &up); err != nil {
			return err
		}
		lat := time.Since(start)
		total += lat
		if lat > worst {
			worst = lat
		}
		batches++
		applied += len(removes) + len(adds)
		fingerprint = up.Fingerprint

		// Mirror the canonical mutation on the client edge list.
		for _, rm := range removes {
			for i, e := range edges {
				if e == rm || (e[0] == rm[1] && e[1] == rm[0]) {
					edges = append(edges[:i], edges[i+1:]...)
					break
				}
			}
		}
		edges = append(edges, adds...)

		// Subsequent batches address the lineage by fingerprint alone.
		req = serve.UpdateRequest{Fingerprint: up.Fingerprint}
	}

	fmt.Printf("streamed %d updates in %d batches (one re-preprocess each):\n", applied, batches)
	fmt.Printf("  /update latency: mean %v, worst %v\n",
		(total / time.Duration(batches)).Round(time.Microsecond), worst.Round(time.Microsecond))

	// Predict on the mutated graph: the client's canonical reconstruction
	// must hit the representation /update published.
	var pred serve.Prediction
	start := time.Now()
	if err := postJSON(base+"/predict", serve.GraphRequest{NumNodes: *n, Edges: edges}, &pred); err != nil {
		return err
	}
	predLat := time.Since(start)
	mg, err := clientGraph(*n, edges)
	if err != nil {
		return err
	}
	if got := mg.Fingerprint().String(); got != fingerprint {
		return fmt.Errorf("client fingerprint %s diverged from server lineage %s", got, fingerprint)
	}
	fmt.Printf("\npredict on the mutated graph: cache_hit=%v, output %.6f (%v)\n",
		pred.CacheHit, pred.Output[0], predLat.Round(time.Microsecond))
	if !pred.CacheHit {
		return fmt.Errorf("prediction missed the representation /update published")
	}

	// What each batch costs beside validation and publication.
	start = time.Now()
	if _, err := models.PrepareMega(mg, models.MegaOptions{}); err != nil {
		return err
	}
	fmt.Printf("one full re-preprocess of the live graph: %v\n", time.Since(start).Round(time.Microsecond))

	var snap serve.Snapshot
	if err := getJSON(base+"/metrics", &snap); err != nil {
		return err
	}
	fmt.Printf("\n/metrics: updates %d, mutations %d, sessions %d, repair p50 %.2fms\n",
		snap.Updates, snap.MutationsApplied, snap.MutationSessions, snap.RepairLatency.P50Ms)
	fmt.Println("reading: a batch of any size costs one re-preprocess of the mutated")
	fmt.Println("graph, and /update publishes the result, so the serving cache stays")
	fmt.Println("hot across the whole mutation stream.")
	return nil
}

func clientGraph(n int, pairs [][2]int32) (*graph.Graph, error) {
	es := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		es[i] = graph.Edge{Src: p[0], Dst: p[1]}
	}
	return graph.New(n, es, false)
}

func postJSON(url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, e["error"])
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}
