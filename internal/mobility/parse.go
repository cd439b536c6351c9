package mobility

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"mobilenet/internal/trace"
)

// Parse builds a Model from a CLI-style spec string. The grammar is
//
//	lazy
//	torus
//	async
//	waypoint[:pause=N]
//	levy[:alpha=F][,max=N]
//	ballistic[:turn=F]
//	trace:FILE[,loop]
//
// with model-specific options after the first colon, comma-separated.
// Simple and barrier-domain walks are built in code and have no spec.
// Unknown models and malformed options are errors; parameter-range errors
// (e.g. a negative pause) surface later, at Bind time.
func Parse(spec string) (Model, error) {
	name, opts, _ := strings.Cut(spec, ":")
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "lazy", "lazywalk", "":
		return bare(LazyWalk{}, opts)
	case "torus":
		return bare(Torus{}, opts)
	case "async":
		return bare(Async{}, opts)
	case "waypoint":
		m := RandomWaypoint{}
		err := parseOpts(opts, map[string]func(string) error{
			"pause": func(v string) (err error) { m.Pause, err = strconv.Atoi(v); return },
		})
		return m, err
	case "levy":
		m := LevyFlight{}
		err := parseOpts(opts, map[string]func(string) error{
			"alpha": func(v string) (err error) { m.Alpha, err = strconv.ParseFloat(v, 64); return },
			"max":   func(v string) (err error) { m.MaxJump, err = strconv.Atoi(v); return },
		})
		return m, err
	case "ballistic":
		m := Ballistic{}
		err := parseOpts(opts, map[string]func(string) error{
			"turn": func(v string) (err error) { m.TurnProb, err = strconv.ParseFloat(v, 64); return },
		})
		return m, err
	case "trace":
		path, rest, _ := strings.Cut(opts, ",")
		if path == "" {
			return nil, fmt.Errorf("mobility: trace requires a file, e.g. trace:run.mtr")
		}
		loop := false
		switch rest {
		case "":
		case "loop":
			loop = true
		default:
			return nil, fmt.Errorf("mobility: unknown trace option %q (only \"loop\")", rest)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("mobility: %w", err)
		}
		defer f.Close()
		t, err := trace.Read(f)
		if err != nil {
			return nil, fmt.Errorf("mobility: reading %s: %w", path, err)
		}
		return TraceReplay{Trace: t, Loop: loop}, nil
	default:
		return nil, fmt.Errorf("mobility: unknown model %q (want lazy|torus|async|waypoint|levy|ballistic|trace)", name)
	}
}

// CanonicalSpec renders a Model back into the spec string Parse accepts,
// with options in a fixed order and grid-independent bind-time defaults
// resolved (a zero levy alpha renders as the 1.6 it runs under; a zero
// ballistic turn probability as 0.05). Two spec strings that parse to the
// same motion law render identically, which makes the rendering usable as
// a canonical form (scenario hashing relies on this). The one exception is
// levy's MaxJump, whose default depends on the grid and so stays omitted
// when zero: "levy" and an explicit "levy:max=<side/2>" hash as different
// scenarios even though they run identically — a conservative split, never
// a wrong cache hit. TraceReplay renders as a bare "trace": the trajectory
// lives in memory, not in the string, so the rendering does not round-trip.
func CanonicalSpec(m Model) string {
	switch m := m.(type) {
	case LazyWalk:
		return "lazy"
	case RandomWaypoint:
		if m.Pause != 0 {
			return fmt.Sprintf("waypoint:pause=%d", m.Pause)
		}
		return "waypoint"
	case LevyFlight:
		alpha := m.Alpha
		if alpha == 0 {
			alpha = 1.6 // Bind's default
		}
		opts := []string{"alpha=" + strconv.FormatFloat(alpha, 'g', -1, 64)}
		if m.MaxJump != 0 {
			opts = append(opts, "max="+strconv.Itoa(m.MaxJump))
		}
		return "levy:" + strings.Join(opts, ",")
	case Ballistic:
		turn := m.TurnProb
		if turn == 0 {
			turn = 0.05 // Bind's default
		}
		return "ballistic:turn=" + strconv.FormatFloat(turn, 'g', -1, 64)
	default:
		return m.Name()
	}
}

// bare returns a model that takes no options, rejecting any.
func bare(m Model, opts string) (Model, error) {
	if opts != "" {
		return nil, fmt.Errorf("mobility: %s takes no options, got %q", m.Name(), opts)
	}
	return m, nil
}

// parseOpts applies "key=value" options, comma-separated, through the given
// setters.
func parseOpts(opts string, set map[string]func(string) error) error {
	if opts == "" {
		return nil
	}
	for _, kv := range strings.Split(opts, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("mobility: option %q is not key=value", kv)
		}
		f, known := set[key]
		if !known {
			return fmt.Errorf("mobility: unknown option %q", key)
		}
		if err := f(val); err != nil {
			return fmt.Errorf("mobility: option %s: %w", key, err)
		}
	}
	return nil
}
