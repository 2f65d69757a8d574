package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"vampos/internal/trace"
)

// Suite runs every experiment and renders the full report.
type Suite struct {
	Scale Scale

	Fig5     *Fig5Result
	Table3   *Table3Result
	Fig6     *Fig6Result
	Fig7     *Fig7Result
	Table4   *Table4Result
	Table5   *Table5Result
	Fig8     *Fig8Result
	Ablate   *AblationResult
	Recovery *RecoveryResult
	Aging    *AgingResult
	Cluster  *ClusterResult
	Micro    *MicrorebootResult
	Defense  *DefenseResult
}

// experiment names accepted by Run.
var experimentNames = []string{"fig5", "table3", "fig6", "fig7", "table4", "table5", "fig8", "ablation", "recovery", "aging", "cluster", "microreboot", "defense"}

// ExperimentNames lists the runnable experiment ids.
func ExperimentNames() []string {
	out := make([]string, len(experimentNames))
	copy(out, experimentNames)
	return out
}

// Run executes the named experiment ("all" runs everything), writing
// progress and rendered tables to w.
func (s *Suite) Run(name string, w io.Writer) error {
	run := func(id string) error {
		timer := startWallTimer()
		fmt.Fprintf(w, "--- running %s ...\n", id)
		var (
			out string
			err error
		)
		switch id {
		case "fig5":
			s.Fig5, err = RunFig5(s.Scale)
			if err == nil {
				out = s.Fig5.Render()
			}
		case "table3":
			s.Table3, err = RunTable3(s.Scale)
			if err == nil {
				out = s.Table3.Render()
			}
		case "fig6":
			s.Fig6, err = RunFig6(s.Scale)
			if err == nil {
				out = s.Fig6.Render()
			}
		case "fig7":
			s.Fig7, err = RunFig7(s.Scale)
			if err == nil {
				out = s.Fig7.Render()
			}
		case "table4":
			s.Table4, err = RunTable4(s.Scale)
			if err == nil {
				out = s.Table4.Render()
			}
		case "table5":
			s.Table5, err = RunTable5(s.Scale)
			if err == nil {
				out = s.Table5.Render()
			}
		case "fig8":
			s.Fig8, err = RunFig8(s.Scale)
			if err == nil {
				out = s.Fig8.Render()
			}
		case "ablation":
			s.Ablate, err = RunAblation(s.Scale)
			if err == nil {
				out = s.Ablate.Render()
			}
		case "recovery":
			s.Recovery, err = RunRecovery(s.Scale)
			if err == nil {
				out = s.Recovery.Render()
			}
		case "aging":
			s.Aging, err = RunAging(s.Scale)
			if err == nil {
				out = s.Aging.Render()
			}
		case "cluster":
			s.Cluster, err = RunCluster(s.Scale)
			if err == nil {
				out = s.Cluster.Render()
			}
		case "microreboot":
			s.Micro, err = RunMicroreboot(s.Scale)
			if err == nil {
				out = s.Micro.Render()
			}
		case "defense":
			s.Defense, err = RunDefense(s.Scale)
			if err == nil {
				out = s.Defense.Render()
			}
		default:
			return fmt.Errorf("bench: unknown experiment %q (have %v)", id, experimentNames)
		}
		if err != nil {
			return fmt.Errorf("bench: %s: %w", id, err)
		}
		fmt.Fprintln(w, out)
		fmt.Fprintf(w, "--- %s done in %v (wall)\n\n", id, timer.Elapsed().Round(time.Millisecond))
		return nil
	}
	if name == "all" || name == "" {
		for _, id := range experimentNames {
			if err := run(id); err != nil {
				return err
			}
		}
		return nil
	}
	return run(name)
}

// WriteJSON emits every populated result as machine-readable JSON.
// Durations are nanoseconds, matching encoding/json's time.Duration
// representation. Unrun experiments appear as null.
func (s *Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTrace merges the flight recorders of every trace-producing
// experiment that ran (fig6, fig8) into one Chrome trace-event file.
func (s *Suite) WriteTrace(w io.Writer) error {
	var recs []*trace.Recorder
	if s.Fig6 != nil {
		recs = append(recs, s.Fig6.Recorders()...)
	}
	if s.Fig8 != nil {
		recs = append(recs, s.Fig8.Recorders()...)
	}
	if len(recs) == 0 {
		return fmt.Errorf("bench: no traced experiment ran (fig6 and fig8 produce traces)")
	}
	return trace.WriteChrome(w, recs...)
}
