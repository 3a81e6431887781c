// Package mega is the public API of this repository: a from-scratch
// reproduction of "MEGA: More Efficient Graph Attention for GNNs"
// (Deng & Rao, ICDCS 2024).
//
// MEGA converts a sparse graph into a path representation during a CPU
// preprocessing pass, so that graph attention becomes banded diagonal
// attention with sequential, coalesced memory access. This package
// re-exports the stable surface of the internal packages:
//
//   - graph construction and generators (Graph, NewGraph, ...);
//   - the traversal preprocessing (Reorganize, TraverseOptions);
//   - the band representation (BandRep);
//   - Weisfeiler-Lehman similarity checking (WLSimilarity);
//   - the GNN models over both attention engines (NewGatedGCN, NewGT,
//     NewDGLContext, NewMegaContext);
//   - dataset generators (GenerateDataset) and the training harness
//     (Train);
//   - the GPU memory simulator used for profiled runs (NewSim);
//   - model checkpointing (SaveCheckpoint, LoadCheckpoint) and the batched
//     inference service with path-representation caching (NewServer).
//
// See examples/quickstart for a five-minute tour.
package mega

import (
	"io"
	"math/rand"

	"mega/internal/band"
	"mega/internal/datasets"
	"mega/internal/gpusim"
	"mega/internal/graph"
	"mega/internal/models"
	"mega/internal/serve"
	"mega/internal/train"
	"mega/internal/traverse"
	"mega/internal/wl"
)

// Graph is an undirected or directed graph in COO format with a lazy CSR
// index.
type Graph = graph.Graph

// Edge is a (src, dst) vertex pair.
type Edge = graph.Edge

// NodeID identifies a vertex.
type NodeID = graph.NodeID

// NewGraph constructs a graph from an edge list.
func NewGraph(numNodes int, edges []Edge, directed bool) (*Graph, error) {
	return graph.New(numNodes, edges, directed)
}

// Generators re-exported for building synthetic workloads.
var (
	ErdosRenyi     = graph.ErdosRenyi
	ErdosRenyiM    = graph.ErdosRenyiM
	BarabasiAlbert = graph.BarabasiAlbert
	CompleteGraph  = graph.Complete
	CycleGraph     = graph.Cycle
	PathGraph      = graph.Path
	RandomTree     = graph.RandomTree
	Circulant      = graph.Circulant
)

// TraverseOptions configures the MEGA preprocessing traversal.
type TraverseOptions = traverse.Options

// TraverseResult is a computed path representation.
type TraverseResult = traverse.Result

// DefaultTraverseOptions returns full-coverage adaptive-window options.
func DefaultTraverseOptions() TraverseOptions { return traverse.DefaultOptions() }

// Traverse runs the objective traversal (the paper's Algorithm 1).
func Traverse(g *Graph, opts TraverseOptions) (*TraverseResult, error) {
	return traverse.Run(g, opts)
}

// BandRep is the banded diagonal-attention representation of a graph.
type BandRep = band.Rep

// Reorganize converts a graph into its path/band representation in one
// call: traversal plus band construction.
func Reorganize(g *Graph, opts TraverseOptions) (*BandRep, *TraverseResult, error) {
	return band.FromGraph(g, opts)
}

// AdaptiveWindow returns the adaptive attention window for a graph.
func AdaptiveWindow(g *Graph) int { return traverse.AdaptiveWindow(g) }

// RevisitLowerBound returns the paper's Σ⌈dᵢ/ω⌉−n bound.
func RevisitLowerBound(degrees []int, omega int) int {
	return traverse.RevisitLowerBound(degrees, omega)
}

// WLSimilarity computes the Weisfeiler-Lehman multiset similarity between
// two graphs after the given number of refinement hops (1.0 = WL-identical).
func WLSimilarity(a, b *Graph, hops int) float64 {
	return wl.GraphSimilarity(a, b, nil, nil, hops)
}

// Dataset is a generated evaluation workload with train/val/test splits.
type Dataset = datasets.Dataset

// DatasetConfig sizes a generated dataset.
type DatasetConfig = datasets.Config

// Instance is one graph sample.
type Instance = datasets.Instance

// Task kinds for datasets.
const (
	TaskRegression     = datasets.TaskRegression
	TaskClassification = datasets.TaskClassification
)

// GenerateDataset builds one of the paper's evaluation datasets by name:
// "ZINC", "AQSOL", "CSL" or "CYCLES".
func GenerateDataset(name string, cfg DatasetConfig) (*Dataset, error) {
	return datasets.Generate(name, cfg)
}

// DatasetNames lists the four evaluation datasets.
func DatasetNames() []string { return datasets.Names() }

// Model is a graph-prediction network runnable over either engine.
type Model = models.Model

// ModelConfig sizes a model.
type ModelConfig = models.Config

// Context carries one batch prepared for a specific attention engine.
type Context = models.Context

// MegaOptions configures MEGA-engine preprocessing.
type MegaOptions = models.MegaOptions

// EngineKind selects the attention engine.
type EngineKind = models.EngineKind

// Engine kinds.
const (
	EngineDGL  = models.EngineDGL
	EngineMega = models.EngineMega
)

// NewGatedGCN constructs the Gated Graph ConvNet configuration.
func NewGatedGCN(cfg ModelConfig) *models.GatedGCN { return models.NewGatedGCN(cfg) }

// NewGT constructs the Graph Transformer configuration.
func NewGT(cfg ModelConfig) *models.GT { return models.NewGT(cfg) }

// NewGAT constructs the Graph Attention Network (Veličković et al., the
// paper's reference [14]) configuration.
func NewGAT(cfg ModelConfig) *models.GAT { return models.NewGAT(cfg) }

// NewDGLContext prepares a batch for the conventional gather/scatter
// engine; sim may be nil to skip profiling.
func NewDGLContext(insts []Instance, sim *Sim, dim int) (*Context, error) {
	return models.NewDGLContext(insts, sim, dim)
}

// NewMegaContext prepares a batch for the banded MEGA engine; sim may be
// nil to skip profiling.
func NewMegaContext(insts []Instance, opts MegaOptions, sim *Sim, dim int) (*Context, error) {
	return models.NewMegaContext(insts, opts, sim, dim)
}

// Sim is the trace-driven GPU memory simulator.
type Sim = gpusim.Sim

// SimConfig describes a simulated device.
type SimConfig = gpusim.Config

// NewSim creates a simulator; use GTX1080Config() for the paper's device.
func NewSim(cfg SimConfig) *Sim { return gpusim.New(cfg) }

// GTX1080Config returns the paper's evaluation GPU.
func GTX1080Config() SimConfig { return gpusim.GTX1080() }

// TrainOptions configures an end-to-end training run.
type TrainOptions = train.Options

// TrainResult is a completed run with per-epoch statistics.
type TrainResult = train.Result

// Train runs end-to-end training of a model configuration on a dataset.
func Train(ds *Dataset, opts TrainOptions) (*TrainResult, error) {
	return train.Run(ds, opts)
}

// Fingerprint is a canonical topology digest: equal iff two graphs
// serialise to identical bytes — the key of the serving path cache.
type Fingerprint = graph.Fingerprint

// PreparedRep is a cached MEGA preprocessing result (traversal + band) for
// one graph, reusable across batches.
type PreparedRep = models.PreparedRep

// PrepareMega runs the MEGA preprocessing for a single graph.
func PrepareMega(g *Graph, opts MegaOptions) (*PreparedRep, error) {
	return models.PrepareMega(g, opts)
}

// NewMegaContextFromReps assembles a MEGA context from precomputed path
// representations (e.g. retrieved from a RepCache by fingerprint).
func NewMegaContextFromReps(insts []Instance, preps []*PreparedRep, sim *Sim, dim int) (*Context, error) {
	return models.NewMegaContextFromReps(insts, preps, sim, dim)
}

// Checkpoint describes a serialised trained model.
type Checkpoint = train.Checkpoint

// NewModel constructs a model by configuration name ("GCN", "GT", "GAT").
func NewModel(name string, cfg ModelConfig) (Model, error) { return train.NewModel(name, cfg) }

// SaveCheckpoint / LoadCheckpoint persist and restore trained models.
func SaveCheckpoint(w io.Writer, meta Checkpoint, model Model) error {
	return train.SaveCheckpoint(w, meta, model)
}

// LoadCheckpoint reads a checkpoint, rebuilding the model it describes.
func LoadCheckpoint(r io.Reader) (Checkpoint, Model, error) { return train.LoadCheckpoint(r) }

// SaveCheckpointFile writes a checkpoint to path.
func SaveCheckpointFile(path string, meta Checkpoint, model Model) error {
	return train.SaveCheckpointFile(path, meta, model)
}

// LoadCheckpointFile reads a checkpoint from path.
func LoadCheckpointFile(path string) (Checkpoint, Model, error) {
	return train.LoadCheckpointFile(path)
}

// Server is the concurrent batched inference service (see internal/serve
// and cmd/megaserve): micro-batched forward passes over a worker pool with
// an LRU path-representation cache and per-stage latency metrics.
type Server = serve.Server

// ServeOptions tunes the inference service.
type ServeOptions = serve.Options

// Prediction is the service's answer for one graph.
type Prediction = serve.Prediction

// RepCache is the fingerprint-keyed LRU over prepared path representations.
type RepCache = serve.RepCache

// NewRepCache creates a path-representation cache bounded to capacity
// entries.
func NewRepCache(capacity int) *RepCache { return serve.NewRepCache(capacity) }

// NewServer starts an inference service around a loaded model. Invalid
// knob combinations (ShardWorkers that don't divide 8, an unknown
// Precision) are rejected with serve.ErrBadOptions instead of silently adjusted.
func NewServer(model Model, meta Checkpoint, opts ServeOptions) (*Server, error) {
	return serve.New(model, meta, opts)
}

// NewServerFromCheckpointFile loads a megatrain checkpoint and serves it.
func NewServerFromCheckpointFile(path string, opts ServeOptions) (*Server, error) {
	return serve.NewFromCheckpointFile(path, opts)
}

// NewServerFromCheckpointDir serves the newest good checkpoint from a
// megatrain checkpoint directory, quarantining corrupt files instead of
// failing (see internal/train.LoadLatestCheckpoint).
func NewServerFromCheckpointDir(dir string, opts ServeOptions) (*Server, error) {
	return serve.NewFromCheckpointDir(dir, opts)
}

// NewRand is a convenience seeded RNG constructor for the generator
// helpers above.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
