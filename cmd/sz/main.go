// Command sz streams raw binary floating-point arrays through any codec
// in the registry (sz14, blocked, pwrel, gzip, fpzip, zfp, sz11,
// isabela), file to file or pipe to pipe.
//
// Compress a 100x500x500 float32 field with a value-range-relative bound:
//
//	sz c -codec sz14 -rel 1e-4 -dims 100,500,500 in.f32 out.sz
//
// Stream an in-situ blocked container with bounded memory (absolute
// bound), straight from a generator:
//
//	szgen -set Hurricane -o - | sz c -codec blocked -abs 1e-3 -dims 100,500,500 - hur.szb
//
// Decompress (codec auto-detected from the stream magic):
//
//	sz d hur.szb restored.f32
//
// Inspect a stream without decompressing (add -json for scripts):
//
//	sz inspect hur.szb
//
// Every subcommand takes -remote <addr> to run against an szd daemon
// instead of compressing in-process:
//
//	sz c -remote localhost:7071 -codec blocked -abs 1e-3 -dims 100,500,500 in.f32 out.szb
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	sz "repro"
	"repro/internal/api"
	"repro/internal/blocked"
	"repro/internal/client"
	"repro/internal/codec"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "c", "compress":
		err = cmdCompress(os.Args[2:])
	case "d", "decompress":
		err = cmdDecompress(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "codecs":
		err = cmdCodecs(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sz:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  sz c [flags] [in] [out]    compress raw samples (in/out default "-" = stdin/stdout)
  sz d [flags] [in] [out]    decompress a stream (codec auto-detected)
  sz inspect [flags] [in]    print stream metadata without decompressing
  sz codecs [flags]          list registered codecs

compress flags:
  -codec name   codec to use (default sz14); see "sz codecs"
  -dims d0,d1   array dimensions, slowest first (required; "," or "x" separated)
  -dtype t      raw element type: f32|f64 (default f32)
  -abs eb       absolute error bound
  -rel eb       value-range-relative bound (pointwise epsilon for -codec pwrel)
  -layers n     SZ predictor layers (default %d)
  -m bits       SZ quantization code bits (default %d)
  -slab rows    blocked-container slab thickness (default auto)
  -workers n    blocked-container parallelism (default NumCPU)
  -zfprate r    ZFP fixed-rate bits/value (overrides bounds for -codec zfp)
  -streams k    interleaved Huffman sub-streams per slab for ILP decode
                (default auto = the daemon's advertised preference in -remote
                mode, else 4, for -codec blocked writing a v3 container;
                1 keeps the serial layout)
  -container v  blocked container version: auto|v2|v3 (v2 forces streams=1)
  -sharedcb     blocked v3: one codebook shared by every slab (one-shot only)

decompress flags:
  -codec name   force a codec (needed for gzip, whose streams have no magic dims)
  -dtype t      element type for codecs that do not record it (default f64)
  -dims d0,d1   shape for non-self-describing codecs
  -slab i|lo-hi random-access decode of just that slab range of a blocked container
  -workers n    blocked containers: slab decodes in flight, served in order
                (default NumCPU; each holds its compressed slab and about
                6 bytes per float32 slab cell, 10 per float64 cell;
                local only: the daemon decodes one slab ahead)
  -digest d     read a container from the daemon's store by content address
                (remote only, no input upload; "sz c -remote" prints the digest)

inspect flags:
  -json         machine-readable output

every subcommand:
  -remote addr  run against an szd daemon at addr instead of in-process
  -timing       print the daemon's Server-Timing stage breakdown to stderr
                (remote only; includes be-* backend stages via szrouter)

c and d additionally (remote only):
  -tenant key   API key for per-tenant admission; the tenant is the
                key's prefix up to the first "." (no key = "default")
  -priority p   admission class: interactive (default) or batch
                (batch sheds first when the daemon is loaded)
`, sz.DefaultLayers, sz.DefaultIntervalBits)
}

// openIn returns the input reader; "-" or "" means stdin.
func openIn(path string) (io.ReadCloser, error) {
	if path == "" || path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// openOut returns the output writer; "-" or "" means stdout. A real
// path opens lazily on the first written byte, so failures that produce
// no output — an unknown codec, an unreachable or overloaded daemon in
// -remote mode — never truncate a pre-existing file.
func openOut(path string) (io.WriteCloser, error) {
	if path == "" || path == "-" {
		return nopWriteCloser{os.Stdout}, nil
	}
	return &lazyFileWriter{path: path}, nil
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// lazyFileWriter creates its file on first Write. Compression always
// writes at least a header; a zero-byte decompression must call
// materialize on success so the output file exists (and is empty)
// rather than silently absent or stale.
type lazyFileWriter struct {
	path string
	f    *os.File
}

func (lw *lazyFileWriter) materialize() error {
	if lw.f != nil {
		return nil
	}
	f, err := os.Create(lw.path)
	if err != nil {
		return err
	}
	lw.f = f
	return nil
}

func (lw *lazyFileWriter) Write(p []byte) (int, error) {
	if lw.f == nil {
		f, err := os.Create(lw.path)
		if err != nil {
			return 0, err
		}
		lw.f = f
	}
	return lw.f.Write(p)
}

func (lw *lazyFileWriter) Close() error {
	if lw.f == nil {
		return nil
	}
	return lw.f.Close()
}

// countingWriter tracks bytes for the compression summary. discard
// swallows output once a run has failed, so cleanup-time flushes reach
// neither file nor stdout. It is atomic because the remote writer copies
// the daemon's response into it from a goroutine of its own, which may
// be mid-Write when the main goroutine aborts; local codec writers write
// only from the goroutine calling them.
type countingWriter struct {
	w       io.Writer
	n       int64
	discard atomic.Bool
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.discard.Load() {
		return len(p), nil
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// inputSize stats a path for the size a remote upload declares (its
// Content-Length once over the client's buffer limit); -1 for pipes.
func inputSize(path string) int64 {
	if path == "" || path == "-" {
		return -1
	}
	if fi, err := os.Stat(path); err == nil && fi.Mode().IsRegular() {
		return fi.Size()
	}
	return -1
}

// newRemoteClient builds the daemon client for a subcommand; with
// -timing, every response's Server-Timing breakdown (the daemon's stage
// spans, plus be-* backend stages merged by szrouter) prints to stderr.
// apiKey and priority thread the -tenant/-priority flags through to the
// daemon's per-tenant admission control.
func newRemoteClient(addr string, timing bool, apiKey, priority string) (*client.Client, error) {
	var opts []client.Option
	if timing {
		opts = append(opts, client.WithTiming(func(endpoint string, entries []obs.TimingEntry) {
			fmt.Fprintf(os.Stderr, "sz: %s timing:\n%s", endpoint, obs.FormatTimingTable(entries))
		}))
	}
	if apiKey != "" {
		opts = append(opts, client.WithTenant(apiKey))
	}
	if priority != "" {
		p, err := api.ParsePriority(priority)
		if err != nil {
			return nil, err
		}
		opts = append(opts, client.WithPriority(p))
	}
	return client.New(addr, opts...)
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("sz c", flag.ExitOnError)
	var (
		codecName = fs.String("codec", "sz14", "codec name")
		dimsStr   = fs.String("dims", "", "dimensions, slowest first")
		dtypeStr  = fs.String("dtype", "f32", "raw element type: f32|f64")
		absB      = fs.Float64("abs", 0, "absolute error bound")
		relB      = fs.Float64("rel", 0, "value-range-relative error bound")
		layers    = fs.Int("layers", 0, "SZ predictor layers")
		mbits     = fs.Int("m", 0, "SZ quantization code bits")
		slab      = fs.Int("slab", 0, "blocked slab rows")
		workers   = fs.Int("workers", 0, "blocked workers")
		zfpRate   = fs.Float64("zfprate", 0, "ZFP fixed-rate bits/value")
		streams   = fs.String("streams", "auto", "interleaved Huffman sub-streams per slab: auto|1..16")
		container = fs.String("container", "auto", "blocked container version: auto|v2|v3")
		sharedCB  = fs.Bool("sharedcb", false, "blocked v3: one shared codebook for all slabs")
		remote    = fs.String("remote", "", "szd daemon address")
		timing    = fs.Bool("timing", false, "print the daemon's Server-Timing stage breakdown to stderr")
		tenant    = fs.String("tenant", "", "API key for per-tenant admission (tenant = prefix up to the first '.')")
		priority  = fs.String("priority", "", "admission class: interactive (default) or batch (sheds first under load)")
	)
	fs.Parse(args)
	in, out := fs.Arg(0), fs.Arg(1)

	containerV := 0
	switch *container {
	case "", "auto":
	case "v2", "2":
		containerV = 2
	case "v3", "3":
		containerV = 3
	default:
		return fmt.Errorf("bad -container %q (auto|v2|v3)", *container)
	}
	var cl *client.Client
	if *remote != "" {
		var err error
		if cl, err = newRemoteClient(*remote, *timing, *tenant, *priority); err != nil {
			return err
		}
	}
	// auto = the ILP-friendly default for the blocked container: v3 with
	// four interleaved sub-streams per slab — unless the container is
	// pinned to v2, which only knows the serial layout. Everything else
	// keeps the single-stream layout unless asked. In remote mode the
	// daemon knows its own decode parallelism better than any client
	// constant, so auto adopts the preferred count it advertises in
	// /v1/codecs.
	nStreams := 0
	switch *streams {
	case "", "auto":
		if *codecName == "blocked" && containerV != 2 {
			nStreams = 4
			if cl != nil {
				if info, err := cl.CodecsInfo(context.Background()); err == nil && info.PreferredStreams > 0 {
					nStreams = info.PreferredStreams
				}
			}
		}
	default:
		n, err := strconv.Atoi(*streams)
		if err != nil || n < 1 {
			return fmt.Errorf("bad -streams %q (auto or a count >= 1)", *streams)
		}
		nStreams = n
	}

	// Validate the codec name up front so a typo fails with the list of
	// registered codecs before any file is created or byte is read.
	// (Remote mode defers to the daemon's registry.)
	if *remote == "" {
		if _, err := codec.Lookup(*codecName); err != nil {
			return err
		}
	}
	dims, err := codec.ParseDims(*dimsStr)
	if err != nil {
		return err
	}
	// gzip is shapeless (plain DEFLATE over the byte stream); every
	// other codec needs the array geometry to interpret the raw input.
	if len(dims) == 0 && *codecName != "gzip" {
		return fmt.Errorf("missing -dims (required to interpret the raw input)")
	}
	dt, err := codec.ParseDType(*dtypeStr)
	if err != nil {
		return err
	}
	p := sz.CodecParams{
		AbsBound:       *absB,
		RelBound:       *relB,
		Layers:         *layers,
		IntervalBits:   *mbits,
		DType:          dt,
		Dims:           dims,
		SlabRows:       *slab,
		Workers:        *workers,
		Rate:           *zfpRate,
		Streams:        nStreams,
		Container:      containerV,
		SharedCodebook: *sharedCB,
	}
	switch {
	case *absB > 0 && *relB > 0:
		p.Mode = sz.BoundAbsAndRel
	case *absB > 0:
		p.Mode = sz.BoundAbs
	case *relB > 0:
		p.Mode = sz.BoundRel
	case *codecName != "gzip" && *codecName != "fpzip" && *zfpRate <= 0:
		return fmt.Errorf("need -abs or -rel for codec %s", *codecName)
	}

	r, err := openIn(in)
	if err != nil {
		return err
	}
	defer r.Close()
	w, err := openOut(out)
	if err != nil {
		return err
	}
	cw := &countingWriter{w: w}
	var zw io.WriteCloser
	if cl != nil {
		zw, err = cl.NewWriter(context.Background(), cw, *codecName, p)
		if err != nil {
			w.Close()
			return err
		}
	} else {
		zw, err = sz.NewCodecWriter(*codecName, cw, p)
		if err != nil {
			w.Close()
			return err
		}
	}
	nIn, err := io.Copy(zw, bufio.NewReaderSize(r, 1<<20))
	if err == nil {
		err = zw.Close()
	} else {
		// The run failed: discard further output so no stray bytes land
		// in the file, then tear the codec writer down. A remote writer
		// gets Abort (dropping its unsent buffer instead of posting a
		// truncated payload); local writers get Close, which waits for
		// the blocked container's slab encodes in flight and recycles
		// their buffers.
		cw.discard.Store(true)
		if aw, ok := zw.(interface{ Abort() error }); ok {
			aw.Abort()
		} else {
			zw.Close()
		}
	}
	if err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sz c: %s: %d -> %d bytes (CF %.2f)\n",
		*codecName, nIn, cw.n, float64(nIn)/float64(cw.n))
	// A store-backed daemon content-addresses the finished container;
	// surface the digest so later reads can skip the upload entirely
	// (`sz d -remote ... -digest <digest>`).
	if dw, ok := zw.(client.Digester); ok && dw.Digest() != "" {
		fmt.Fprintf(os.Stderr, "sz c: digest %s\n", dw.Digest())
	}
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("sz d", flag.ExitOnError)
	var (
		codecName = fs.String("codec", "", "codec name (default: auto-detect)")
		dimsStr   = fs.String("dims", "", "dimensions for non-self-describing codecs")
		dtypeStr  = fs.String("dtype", "f64", "element type for codecs that do not record it")
		workers   = fs.Int("workers", 0, "blocked containers: slab decodes in flight (default NumCPU; local only, the daemon decodes one slab ahead)")
		slabSpec  = fs.String("slab", "", "random-access decode of a blocked container: slab index or lo-hi range")
		remote    = fs.String("remote", "", "szd daemon address")
		digest    = fs.String("digest", "", "content address of a container in the daemon's store (remote only): read by digest, no input upload")
		timing    = fs.Bool("timing", false, "print the daemon's Server-Timing stage breakdown to stderr")
		tenant    = fs.String("tenant", "", "API key for per-tenant admission (tenant = prefix up to the first '.')")
		priority  = fs.String("priority", "", "admission class: interactive (default) or batch (sheds first under load)")
	)
	fs.Parse(args)
	in, out := fs.Arg(0), fs.Arg(1)
	if *digest != "" {
		if *remote == "" {
			return fmt.Errorf("-digest needs -remote (the container lives in a daemon's store)")
		}
		// No input file travels: arg 0 is the output.
		in, out = "", fs.Arg(0)
	}

	dims, err := codec.ParseDims(*dimsStr)
	if err != nil {
		return err
	}
	dt, err := codec.ParseDType(*dtypeStr)
	if err != nil {
		return err
	}
	var br *bufio.Reader
	if *digest == "" {
		r, err := openIn(in)
		if err != nil {
			return err
		}
		defer r.Close()
		br = bufio.NewReaderSize(r, 1<<20)
	}
	p := sz.CodecParams{Dims: dims, DType: dt, Workers: *workers}

	var zr io.ReadCloser
	name := *codecName
	if *digest != "" {
		// Content-addressed read: the daemon serves off its store, the
		// client uploads nothing. Slab ranges come back as compressed
		// extents decoded locally — the backend does no decode work.
		cl, err := newRemoteClient(*remote, *timing, *tenant, *priority)
		if err != nil {
			return err
		}
		if *slabSpec != "" {
			lo, hi, err := codec.ParseSlabSpec(*slabSpec)
			if err != nil {
				return err
			}
			name = "blocked"
			ext, err := cl.ReadSlabExtent(context.Background(), *digest, lo, hi)
			if err != nil {
				return err
			}
			raw, err := ext.Decode()
			if err != nil {
				return err
			}
			zr = io.NopCloser(bytes.NewReader(raw))
		} else {
			name = "auto"
			if zr, err = cl.DecompressAt(context.Background(), *digest, *codecName, p); err != nil {
				return err
			}
		}
	} else if *slabSpec != "" {
		// Random access: only the requested slab range is reconstructed,
		// locally or by the daemon's /v1/slab endpoint.
		lo, hi, err := codec.ParseSlabSpec(*slabSpec)
		if err != nil {
			return err
		}
		name = "blocked"
		if *remote != "" {
			cl, err := newRemoteClient(*remote, *timing, *tenant, *priority)
			if err != nil {
				return err
			}
			if zr, err = cl.ReadSlab(context.Background(), br, inputSize(in), lo, hi); err != nil {
				return err
			}
		} else {
			stream, err := io.ReadAll(br)
			if err != nil {
				return err
			}
			arr, dt, err := blocked.DecompressSlabRange(stream, lo, hi)
			if err != nil {
				return err
			}
			var raw bytes.Buffer
			if err := arr.WriteRaw(&raw, dt); err != nil {
				return err
			}
			zr = io.NopCloser(&raw)
		}
	} else if *remote != "" {
		cl, err := newRemoteClient(*remote, *timing, *tenant, *priority)
		if err != nil {
			return err
		}
		zr, err = cl.NewReader(context.Background(), br, inputSize(in), *codecName, p)
		if err != nil {
			return err
		}
		if name == "" {
			name = "auto"
		}
	} else {
		if name == "" {
			prefix, _ := br.Peek(4)
			c, err := codec.Detect(prefix)
			if err != nil {
				return fmt.Errorf("%w; pass -codec explicitly", err)
			}
			name = c.Name()
		}
		zr, err = sz.NewCodecReader(name, br, p)
		if err != nil {
			return err
		}
	}
	defer zr.Close()
	w, err := openOut(out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	n, err := io.Copy(bw, zr)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		// A legitimate zero-sample stream writes no bytes; the output
		// file must still come into existence on success.
		if lw, ok := w.(*lazyFileWriter); ok {
			err = lw.materialize()
		}
	}
	if err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sz d: %s: %d raw bytes out\n", name, n)
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("sz inspect", flag.ExitOnError)
	var (
		asJSON = fs.Bool("json", false, "machine-readable output")
		remote = fs.String("remote", "", "szd daemon address")
	)
	fs.Parse(args)
	r, err := openIn(fs.Arg(0))
	if err != nil {
		return err
	}
	defer r.Close()

	var si *codec.StreamInfo
	if *remote != "" {
		cl, err := client.New(*remote)
		if err != nil {
			return err
		}
		if si, err = cl.Inspect(context.Background(), r, inputSize(fs.Arg(0))); err != nil {
			return err
		}
	} else {
		stream, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		if si, err = codec.InspectStream(stream); err != nil {
			return err
		}
	}
	if *asJSON {
		out, err := json.MarshalIndent(si, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	fmt.Print(si.Text())
	return nil
}

func cmdCodecs(args []string) error {
	fs := flag.NewFlagSet("sz codecs", flag.ExitOnError)
	remote := fs.String("remote", "", "szd daemon address")
	fs.Parse(args)
	names := sz.Codecs()
	if *remote != "" {
		cl, err := client.New(*remote)
		if err != nil {
			return err
		}
		if names, err = cl.Codecs(context.Background()); err != nil {
			return err
		}
	}
	fmt.Println(strings.Join(names, "\n"))
	return nil
}
