package goofi

import (
	"bytes"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"ctrlguard/internal/detect"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/trace"
	"ctrlguard/internal/workload"
)

// nonDefaultModels are the extended fault models: the ones the
// equivalence-class pruner does not understand and must cleanly
// decline, while the warm start serves them like the default model.
var nonDefaultModels = []inject.FaultModel{
	workload.ModelPC, workload.ModelTransient, workload.ModelBurst,
}

// TestModelCampaignWarmStartsWithoutPruning pins the fast-path contract
// for the extended models: the pruner (calibrated for single persistent
// flips) declines, the warm start runs, and transients — mostly undone
// one instruction after the flip — reconverge with the golden run and
// exit early.
func TestModelCampaignWarmStartsWithoutPruning(t *testing.T) {
	for _, m := range nonDefaultModels {
		res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 40, Seed: 5, Model: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Prune != nil {
			t.Errorf("%s: pruner ran on an unsupported model", m)
		}
		if res.WarmStart == nil {
			t.Fatalf("%s: warm-start fast path declined", m)
		}
		if m == workload.ModelTransient && res.WarmStart.EarlyExits == 0 {
			t.Errorf("%s: no experiment reconverged with the golden run: %+v", m, *res.WarmStart)
		}
		for i, rec := range res.Records {
			if rec.Model != string(m) {
				t.Fatalf("%s: record %d stamped model %q", m, i, rec.Model)
			}
		}
	}
}

// TestDefaultModelRecordsUnstamped pins the wire-compatibility side:
// default-model campaigns leave Model/Width zero so historical record
// files stay byte-identical.
func TestDefaultModelRecordsUnstamped(t *testing.T) {
	res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Records {
		if rec.Model != "" || rec.Width != 0 {
			t.Fatalf("record %d stamped %q/%d on the default model", i, rec.Model, rec.Width)
		}
	}
}

// detectorSpecs are the detector arms the cross-validation draws from.
var detectorSpecs = []detect.Spec{
	{}, {CFE: true}, {Automaton: true}, {CFE: true, Automaton: true},
}

// modelIdentityCheck runs one campaign three ways — solo on the warm
// path, with warm-start/pruning explicitly disabled, and as a random
// shard partition merged in order — and requires byte-identical record
// files.
// This is the cross-validation property the distributed coordinator and
// the resume machinery rest on for the extended fault models and for
// detector campaigns, whose warm start resumes and reconverges the
// monitors along with the machine.
func modelIdentityCheck(t *testing.T, rng *rand.Rand, v workload.Variant, m inject.FaultModel, det detect.Spec, n int, seed uint64) {
	t.Helper()
	base := Config{Variant: v, Experiments: n, Seed: seed, Model: m, Detect: det}
	solo, err := Run(base)
	if err != nil {
		t.Fatalf("%s/%s/%s solo: %v", v, m, det, err)
	}
	if solo.WarmStart == nil {
		t.Fatalf("%s/%s/%s: solo run declined the warm start", v, m, det)
	}
	var want bytes.Buffer
	if err := WriteRecords(&want, solo.Records); err != nil {
		t.Fatal(err)
	}

	// Disabling the fast paths must change nothing: warm start and
	// reconvergence are pure optimisations for every model.
	disabled := base
	disabled.DisableWarmStart = true
	disabled.DisablePrune = true
	plain, err := Run(disabled)
	if err != nil {
		t.Fatalf("%s/%s/%s disabled: %v", v, m, det, err)
	}
	var got bytes.Buffer
	if err := WriteRecords(&got, plain.Records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s/%s/%s: -no-prune/-no-warm-start run differs from the warm solo run", v, m, det)
	}

	// Sharded execution in a random partition, merged in shard order.
	got.Reset()
	var merged []Record
	for _, sh := range randomPartition(rng, n, 6) {
		cfg := base
		cfg.Shard = &Shard{Start: sh.Start, End: sh.End}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s/%s shard %+v: %v", v, m, det, sh, err)
		}
		merged = append(merged, res.Records...)
	}
	if err := WriteRecords(&got, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s/%s/%s: sharded merge differs from solo run", v, m, det)
	}
}

// TestModelShardMergeByteIdentical is the fixed-seed smoke version of
// the cross-validation property, always on.
func TestModelShardMergeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8822))
	for _, m := range nonDefaultModels {
		modelIdentityCheck(t, rng, workload.AlgorithmI, m, detect.Spec{}, 48, 321)
	}
	both := detect.Spec{CFE: true, Automaton: true}
	for _, m := range []inject.FaultModel{workload.ModelBitFlip, workload.ModelPC} {
		modelIdentityCheck(t, rng, workload.AlgorithmI, m, both, 48, 321)
	}
}

// TestModelCrossVal is the randomized cross-validation job: CI sets
// MODEL_CROSSVAL_TRIALS (and optionally MODEL_CROSSVAL_SEED) to sweep
// random (variant, detector, model, n, seed) points; locally it
// defaults to a handful of trials. The default bit-flip model is drawn
// only with a detector armed, where it declines the pruner and runs on
// the warm start like the extended models.
func TestModelCrossVal(t *testing.T) {
	trials := 3
	if s := os.Getenv("MODEL_CROSSVAL_TRIALS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("MODEL_CROSSVAL_TRIALS=%q: %v", s, err)
		}
		trials = v
	}
	seed := int64(20260808)
	if s := os.Getenv("MODEL_CROSSVAL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("MODEL_CROSSVAL_SEED=%q: %v", s, err)
		}
		seed = v
	}
	rng := rand.New(rand.NewSource(seed))
	variants := workload.Variants()
	for i := 0; i < trials; i++ {
		v := variants[rng.Intn(len(variants))]
		det := detectorSpecs[rng.Intn(len(detectorSpecs))]
		models := nonDefaultModels
		if det.Enabled() {
			models = append([]inject.FaultModel{workload.ModelBitFlip}, nonDefaultModels...)
		}
		m := models[rng.Intn(len(models))]
		n := 20 + rng.Intn(40)
		campaignSeed := rng.Uint64()
		t.Logf("trial %d: %s/%s/%s n=%d seed=%d", i, v, det, m, n, campaignSeed)
		modelIdentityCheck(t, rng, v, m, det, n, campaignSeed)
	}
}

// TestDetectorCampaign pins the detector integration end to end: a
// PC-model campaign with both families armed classifies some faults as
// detector catches, reports verdict counts, and takes the warm start
// while declining prune and lockstep.
func TestDetectorCampaign(t *testing.T) {
	res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 200, Seed: 9,
		Model: workload.ModelPC, Detect: detect.Spec{CFE: true, Automaton: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detect == nil {
		t.Fatal("Result.Detect is nil with detectors armed")
	}
	d := res.Detect
	if d.CFEDetected == 0 {
		t.Error("signature monitoring caught nothing across 200 PC faults")
	}
	if d.BlockEntries == 0 || d.Overhead <= 0 {
		t.Errorf("overhead model not populated: %+v", d)
	}
	cfe, auto := TallyDetect(res.Records)
	if cfe != d.CFEDetected || auto != d.AutomatonDetected {
		t.Errorf("TallyDetect (%d, %d) disagrees with stats (%d, %d)",
			cfe, auto, d.CFEDetected, d.AutomatonDetected)
	}
	if res.WarmStart == nil {
		t.Error("warm start declined with detectors armed")
	}
	if res.Prune != nil || res.Lockstep != nil {
		t.Error("prune or lockstep ran with detectors armed")
	}
}

// TestDetectorCampaignDeterministic pins that armed detectors keep the
// campaign deterministic: same config, identical record bytes.
func TestDetectorCampaignDeterministic(t *testing.T) {
	cfg := Config{Variant: workload.AlgorithmII, Experiments: 60, Seed: 13,
		Model: workload.ModelPC, Detect: detect.Spec{CFE: true}}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := WriteRecords(&ab, a.Records); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecords(&bb, b.Records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Error("detector campaign is not deterministic")
	}
}

// TestSWIFIRejectsRuntimeModels pins that image-level injection refuses
// the runtime-only models instead of silently running default flips.
func TestSWIFIRejectsRuntimeModels(t *testing.T) {
	for _, m := range []inject.FaultModel{workload.ModelPC, workload.ModelTransient} {
		_, err := RunSWIFI(Config{Variant: workload.AlgorithmI, Experiments: 10, Seed: 3,
			Model: m})
		if err == nil {
			t.Errorf("SWIFI accepted runtime-only model %s", m)
		}
	}
	if _, err := RunSWIFI(Config{Variant: workload.AlgorithmI, Experiments: 10, Seed: 3,
		Model: workload.ModelBurst, BurstWidth: 2}); err != nil {
		t.Errorf("SWIFI rejected the burst model: %v", err)
	}
}

// TestTraceRejectsDetectors pins the explicit decline for detail-mode
// replay, which cannot arm monitors.
func TestTraceRejectsDetectors(t *testing.T) {
	cfg := Config{Variant: workload.AlgorithmI, Experiments: 5, Seed: 1,
		Detect: detect.Spec{CFE: true},
		Trace:  &TraceConfig{OnTrace: func(Record, *trace.Trace) {}},
	}
	if _, err := Run(cfg); err == nil {
		t.Error("trace mode accepted armed detectors")
	}
}
