package harness

import "io"

// Experiment is one reproducible paper table/figure or extension study.
// Experiments is the only list of them: ddbench, the daredevil facade, and
// the fingerprint tests all iterate it.
type Experiment struct {
	Name string
	// Run regenerates the experiment at the given scale. The result encodes
	// to the JSON `ddbench -json` writes.
	Run func(Scale) ExperimentResult
}

// ExperimentResult is a typed experiment result that renders the rows the
// paper reports.
type ExperimentResult interface {
	WriteText(io.Writer)
}

// Experiments lists every experiment in `ddbench all` order: Table 1, the
// paper's figures, then the extensions (Kyber baseline, WRR arbitration,
// polled completion, §8.1 virtio, §1 web app, aged-device GC, fault
// injection).
var Experiments = []Experiment{
	{"table1", func(Scale) ExperimentResult { return RunTable1() }},
	{"fig2", func(sc Scale) ExperimentResult { return RunFig2(sc) }},
	{"fig6", func(sc Scale) ExperimentResult { return RunFig6(sc) }},
	{"fig7", func(sc Scale) ExperimentResult { return RunFig7(sc) }},
	{"fig8", func(sc Scale) ExperimentResult { return RunFig8(sc) }},
	{"fig9", func(sc Scale) ExperimentResult { return RunFig9(sc) }},
	{"fig10", func(sc Scale) ExperimentResult { return RunFig10(sc) }},
	{"fig11", func(sc Scale) ExperimentResult { return RunFig11(sc) }},
	{"fig12", func(sc Scale) ExperimentResult { return RunFig12(sc) }},
	{"fig13", func(sc Scale) ExperimentResult { return RunFig13(sc) }},
	{"fig14", func(sc Scale) ExperimentResult { return RunFig14(sc) }},
	{"ext-sched", func(sc Scale) ExperimentResult { return RunExtSchedulers(sc) }},
	{"ext-wrr", func(sc Scale) ExperimentResult { return RunExtWRR(sc) }},
	{"ext-poll", func(sc Scale) ExperimentResult { return RunExtPolling(sc) }},
	{"ext-virtio", func(sc Scale) ExperimentResult { return RunExtVirtio(sc) }},
	{"ext-webapp", func(sc Scale) ExperimentResult { return RunExtWebapp(sc) }},
	{"ext-gc", func(sc Scale) ExperimentResult { return RunExtGC(sc) }},
	{"ext-fault", func(sc Scale) ExperimentResult { return RunExtFault(DefaultFaultSeed, sc) }},
}

// ExperimentNames lists the registered names in order.
func ExperimentNames() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// LookupExperiment returns the named experiment, or false.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
