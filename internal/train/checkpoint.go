package train

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mega/internal/datasets"
	"mega/internal/faults"
	"mega/internal/models"
	"mega/internal/nn"
	"mega/internal/retry"
)

// Checkpointing: persist a trained model so a separate process (megaserve)
// can load it without retraining. The format is a small self-describing
// container — magic, a JSON header carrying the model architecture and
// task, then the nn parameter blob, then a CRC32 trailer — so loading
// needs no out-of-band configuration and silently corrupted files are
// detected rather than served.
//
// Crash safety: SaveCheckpointFile writes a temp file, fsyncs, and
// renames into place, so a crash (kill -9 included) at any instant leaves
// either the previous checkpoint or the new one — never a torn file under
// the final name. LoadLatestCheckpoint walks a checkpoint directory
// newest-first, quarantines files that fail integrity checks (renamed to
// *.corrupt, never deleted), and returns the newest good one.

const (
	// ckptMagic is the current container format: v2 appends a CRC32-IEEE
	// trailer over every preceding byte.
	ckptMagic = "MEGACKP2"
	// ckptMagicV1 is the PR 1 format without the trailer; still loadable
	// so existing checkpoint files keep working.
	ckptMagicV1 = "MEGACKP1"
	// ckptTrailerLen is the trailer size: one little-endian uint32 CRC.
	ckptTrailerLen = 4
)

// Checkpoint describes a serialised model: everything needed to rebuild the
// network and interpret its outputs.
type Checkpoint struct {
	// Model is the configuration name: "GCN", "GT" or "GAT".
	Model string `json:"model"`
	// Config sizes the network; it must rebuild the identical parameter
	// shapes (nn.LoadParams matches positionally).
	Config models.Config `json:"config"`
	// Task tells consumers how to read the output rows: regression
	// (one scalar) or classification (class logits).
	Task datasets.Task `json:"task"`
	// Dataset names the training workload, informational only.
	Dataset string `json:"dataset,omitempty"`
	// Epoch records how many epochs the parameters have trained for —
	// the resume point for train.Run's periodic checkpointing. Optimiser
	// state (Adam moments) is not captured: a resumed run restarts the
	// optimiser at the checkpointed parameters.
	Epoch int `json:"epoch,omitempty"`
}

// Checkpoint container errors.
var (
	ErrCkptMagic   = errors.New("train: not a model checkpoint")
	ErrCkptHeader  = errors.New("train: corrupt checkpoint header")
	ErrCkptCorrupt = errors.New("train: checkpoint failed integrity check")
	// ErrNoCheckpoint is returned by LoadLatestCheckpoint when the
	// directory holds no loadable checkpoint.
	ErrNoCheckpoint = errors.New("train: no usable checkpoint")
)

// NewModel constructs a model by configuration name — the single switch
// shared by the trainer and checkpoint loading. A cfg (possibly read from
// a checkpoint header) naming an attention implementation other than the
// fused one is an error, never a silent fallback.
func NewModel(name string, cfg models.Config) (models.Model, error) {
	if cfg.Attention != "" && cfg.Attention != "fused" {
		return nil, fmt.Errorf("train: unknown attention implementation %q (only \"fused\" exists)", cfg.Attention)
	}
	switch name {
	case "GCN":
		return models.NewGatedGCN(cfg), nil
	case "GT":
		return models.NewGT(cfg), nil
	case "GAT":
		return models.NewGAT(cfg), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
}

// SaveCheckpoint writes meta and the model's parameters to w, trailed by a
// CRC32 over every preceding byte.
func SaveCheckpoint(w io.Writer, meta Checkpoint, model models.Model) error {
	header, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(w)
	cw := io.MultiWriter(bw, crc)
	if _, err := io.WriteString(cw, ckptMagic); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(header))); err != nil {
		return err
	}
	if _, err := cw.Write(header); err != nil {
		return err
	}
	if err := nn.SaveParams(cw, model.Params()); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadCheckpoint reads a checkpoint from r, verifies its integrity,
// rebuilds the model it describes, and restores its parameters. Both the
// current (CRC-trailed) and the legacy v1 container load.
func LoadCheckpoint(r io.Reader) (Checkpoint, models.Model, error) {
	var meta Checkpoint
	data, err := io.ReadAll(r)
	if err != nil {
		return meta, nil, fmt.Errorf("%w: %v", ErrCkptCorrupt, err)
	}
	if len(data) < len(ckptMagic) {
		return meta, nil, fmt.Errorf("%w: %d bytes", ErrCkptMagic, len(data))
	}
	body := data[len(ckptMagic):]
	switch string(data[:len(ckptMagic)]) {
	case ckptMagic:
		if len(body) < ckptTrailerLen {
			return meta, nil, fmt.Errorf("%w: truncated before trailer", ErrCkptCorrupt)
		}
		payload := data[:len(data)-ckptTrailerLen]
		want := binary.LittleEndian.Uint32(data[len(data)-ckptTrailerLen:])
		if got := crc32.ChecksumIEEE(payload); got != want {
			return meta, nil, fmt.Errorf("%w: crc 0x%08x, trailer 0x%08x", ErrCkptCorrupt, got, want)
		}
		body = body[:len(body)-ckptTrailerLen]
	case ckptMagicV1:
		// Legacy container: no integrity trailer to verify.
	default:
		return meta, nil, ErrCkptMagic
	}

	br := bytes.NewReader(body)
	var headerLen uint32
	if err := binary.Read(br, binary.LittleEndian, &headerLen); err != nil {
		return meta, nil, fmt.Errorf("%w: %v", ErrCkptHeader, err)
	}
	if int64(headerLen) > int64(br.Len()) {
		return meta, nil, fmt.Errorf("%w: header length %d exceeds file", ErrCkptHeader, headerLen)
	}
	header := make([]byte, headerLen)
	if _, err := io.ReadFull(br, header); err != nil {
		return meta, nil, fmt.Errorf("%w: %v", ErrCkptHeader, err)
	}
	if err := json.Unmarshal(header, &meta); err != nil {
		return meta, nil, fmt.Errorf("%w: %v", ErrCkptHeader, err)
	}
	model, err := NewModel(meta.Model, meta.Config)
	if err != nil {
		return meta, nil, err
	}
	if err := nn.LoadParams(br, model.Params()); err != nil {
		return meta, nil, fmt.Errorf("%w: %v", ErrCkptCorrupt, err)
	}
	return meta, model, nil
}

// SaveCheckpointFile atomically writes the checkpoint to path: the bytes
// land in a temp file in the same directory, are fsynced, and are renamed
// over path, so a crash mid-write never leaves a torn file under the
// final name. The faults.TrainCkptSave injection point fires after the
// partial write and before the rename — the window a real crash would hit.
func SaveCheckpointFile(path string, meta Checkpoint, model models.Model) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := SaveCheckpoint(tmp, meta, model); err != nil {
		return err
	}
	if err := faults.Inject(faults.TrainCkptSave); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	// Persist the rename itself; best effort — some filesystems reject
	// directory fsync and the rename is already atomic.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadCheckpointFile reads a checkpoint from path.
func LoadCheckpointFile(path string) (Checkpoint, models.Model, error) {
	if err := faults.Inject(faults.TrainCkptLoad); err != nil {
		return Checkpoint{}, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return Checkpoint{}, nil, err
	}
	defer f.Close()
	return LoadCheckpoint(f)
}

// CheckpointPath names the periodic checkpoint for one epoch inside dir;
// lexicographic order equals epoch order, which LoadLatestCheckpoint
// relies on.
func CheckpointPath(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%06d.ckpt", epoch))
}

// LoadReport describes what LoadLatestCheckpoint did to find a good file.
type LoadReport struct {
	// Path is the checkpoint that loaded.
	Path string
	// Quarantined lists files that failed integrity checks and were
	// renamed aside (original names).
	Quarantined []string
	// Skipped lists files that kept failing with transient (IO) errors
	// after retries; they are left in place.
	Skipped []string
}

// ckptLoadRetry paces re-reads of a checkpoint that failed with a
// transient IO error (distinct from corruption, which is permanent).
var ckptLoadRetry = retry.Config{Attempts: 3, Base: 5 * time.Millisecond}

// LoadLatestCheckpoint scans dir for ckpt-*.ckpt files newest-first and
// returns the first one that loads cleanly. Files that fail integrity
// checks are quarantined — renamed to <name>.corrupt so they never shadow
// a good checkpoint again but remain for inspection. Transient IO errors
// are retried with backoff before the file is skipped. If nothing loads,
// the error is ErrNoCheckpoint.
func LoadLatestCheckpoint(dir string) (Checkpoint, models.Model, LoadReport, error) {
	var rep LoadReport
	entries, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		return Checkpoint{}, nil, rep, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(entries)))
	for _, path := range entries {
		var meta Checkpoint
		var model models.Model
		err := retry.Do(context.Background(), ckptLoadRetry, func() error {
			m, mod, err := LoadCheckpointFile(path)
			if err == nil {
				meta, model = m, mod
				return nil
			}
			if corruptCheckpoint(err) {
				return retry.Permanent(err)
			}
			return err // transient: injected fault or filesystem hiccup
		})
		switch {
		case err == nil:
			rep.Path = path
			return meta, model, rep, nil
		case corruptCheckpoint(err):
			if qerr := os.Rename(path, path+".corrupt"); qerr == nil {
				rep.Quarantined = append(rep.Quarantined, path)
			} else {
				rep.Skipped = append(rep.Skipped, path)
			}
		default:
			rep.Skipped = append(rep.Skipped, path)
		}
	}
	return Checkpoint{}, nil, rep, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
}

// corruptCheckpoint classifies a load failure: container/integrity/parse
// errors are permanent corruption (quarantine), while injected faults and
// filesystem errors are transient (retry, then skip).
func corruptCheckpoint(err error) bool {
	if err == nil || faults.IsInjected(err) {
		return false
	}
	var pathErr *fs.PathError
	if errors.As(err, &pathErr) {
		return false
	}
	return true
}

// Checkpoint packages a completed run's model description for
// serialisation: SaveCheckpointFile(path, res.Checkpoint(dsName), res.Model).
func (r *Result) Checkpoint(dataset string) Checkpoint {
	return Checkpoint{Model: r.ModelName, Config: r.Config, Task: r.Task, Dataset: dataset}
}
