#!/usr/bin/env bash
# Runs the determinism crosschecks under the race detector:
#   - PR 4: the GOMAXPROCS {1,4,8} matrix at the public API (DetectAll,
#     DetectParallel, stream commits, AutoConfig) plus the per-path
#     crosschecks in internal/core, internal/lid and internal/affinity that
#     force every fan-out gate open;
#   - the component peel: DetectAll peeling LSH components concurrently,
#     bit-identical to the serial peel (clusters, order, weights, densities,
#     kernel-evaluation count, peak submatrix) on many-component,
#     one-giant-component and minhash fixtures, a peel over a matrix and
#     index that evicted the same ids seeding and reporting only live ids,
#     a cancelled peel returning only after every worker stopped (also when
#     the cancel lands while only one-point components, consumed without a
#     detection, remain), and the index conformance check that CIVS
#     candidates never leave their seed's component;
#   - one peel for batch and stream: a stream's first commit, and so
#     engine.New's initial clusters, equal DetectAll on the same rows
#     (seeds, members, weight and density bits, kernel-evaluation count)
#     at Parallelism 0 and -1 and GOMAXPROCS 1 and 4, its components
#     peeled on a GOMAXPROCS-wide pool, on the serving geometry and a
#     many-component eta mixture; a first commit cancelled mid-peel
#     returning the context's error after every worker stopped, with
#     labels agreeing with clusters, the available set exactly the live
#     unlabeled points, and the next commit proceeding; and an arrival
#     that a later commit's rejected detection consumed ending that
#     commit free (label -1, available);
#   - the work a detection no longer repeats: DetectAll's cluster digest,
#     cluster count, peak submatrix and kernel-evaluation count pinned per
#     mixture by a golden file at Parallelism 0 and -1; the LID state
#     (columns read back by symmetry, the three-pass Step carrying π, β
#     positions in a dense caller-owned index) bit-identical to a
#     reference copy of the six-pass, map-keyed state under serial and
#     forced-parallel pools, on a fixture of repeated points too, where
#     exact payoff ties reach the selection; the branch-free Eq. 6 scan
#     picking what the switch-form scan picks on r = ±0, NaN payoffs,
#     weights at and just above WeightEps, and equal |r| in C1 and C2, at
#     tol 1e-7, 0 and -1; a DetectFrom cancelled at each of its first six
#     context polls leaving the position index at -1 and the detector's
#     next detection bit-identical to a fresh detector's; every kernel
#     bit-symmetric (Column(i,[j]) = Column(j,[i]) = Pair(i,j), the
#     SquaredL2 fallback included); and the multi-id candidate read against the brute-force
#     co-bucketing oracle in the order of a per-id loop, before and after
#     Evict (named in the backend group beside its conformance suite);
#   - PR 5: the evict crosschecks — after tombstoned eviction, every LSH
#     query and engine Assign must be bit-identical to an index/engine
#     rebuilt from only the survivors, snapshot v3 must round-trip
#     byte-identically with tombstones, retention must pin the live set,
#     and every repaired cluster's density, updated from the evicted
#     members' rows, must match the direct sum over its support, through
#     an eviction that releases a whole matrix chunk;
#   - the batched Assign crosschecks — AssignBatch winners, scores and
#     order bit-identical to N sequential Assigns (including a
#     generation-stable crosscheck inside the concurrent ingest/evict race
#     test), both Assign and AssignBatch bit-identical to an independent
#     full-scan reference on random, adversarial near-tie and exact-tie
#     fixtures (an exact tie goes to the first-seen candidate), single
#     assigns after a batch that wrapped the shared scratch's marker
#     counter, and the packed batch scorer matching a gathered column plus
#     an index-order sum bitwise;
#   - PR 8: the sharded serving crosschecks — a Sharded(N) engine
#     bit-identical to the deterministic merge of N standalone engines fed
#     the routed subsets at N ∈ {1,2,4,7} and at gather widths {1,4}
#     (GOMAXPROCS at construction),
#     Sharded(1) field-for-field identical to a plain Engine, the sharded
#     manifest save/load a byte-identical fixed point with every failure
#     sentinel (count mismatch, missing file, corrupt file) distinguished;
#     construction and restore run their shards concurrently, yet /metrics
#     lists every family's samples in shard order (after a restore whose
#     empty shard sits between restored ones too), and a restore whose
#     replays fail on shards 1 and 3 returns shard 1's error and leaves no
#     goroutine running;
#   - PALID's concurrent map: DetectParallel's clusters, Assign and seed
#     count equal at every executor count (also with more executors than
#     seeds) and pinned by a golden digest at Parallelism 0 and -1, and a
#     run cancelled before, in the middle of or at the end of the map
#     returning the context's error once every executor stopped;
#   - PR 9: the backend crosschecks — the index conformance suite (both
#     backends against a brute-force co-bucketing oracle, publish isolation,
#     tombstones, dump/restore, GOMAXPROCS determinism), the v4 snapshot
#     byte fixed point with backend tags and the cross-backend restore
#     refusals, and the minhash engine end-to-end (set ingest → commit →
#     cluster → assign → evict → snapshot) deterministic at any
#     Parallelism/GOMAXPROCS;
#   - PR 10: the generation crosschecks — after id renumbering, every
#     answer (clusters, assigns, snapshot bytes) bit-identical to a fresh
#     engine built from only the survivors (dense and minhash backends,
#     Sharded at N ∈ {1,4}); compaction runs where production runs it, in
#     the writer after an Evict or commit crosses CompactEvictedShare;
#   - persistence: at N ∈ {1,4}, a restore of per-shard delta chains
#     byte-identical, shard by shard, to a restore of an equivalent full
#     save, with the damaged-tail prefix fallback, the broken-middle/base
#     refusals, a compaction re-rooting only its own shard's chain, and a
#     save failed before its manifest rename, or by one shard while the
#     others write concurrently (shard 0's base, shard 3's chain), returning
#     that shard's error, leaving the directory as it was and the previous
#     save restorable; every legacy layout (v1–v5 files, the single-engine
#     chain, the version 1 manifest) restoring to its golden v5 bytes.
#
# Usage: scripts/crosscheck.sh
#
# These tests prove two separate properties:
#   - bit-determinism: parallel/evicted output byte-identical to the
#     serial/survivor-rebuilt reference (the tests' own assertions);
#   - data-race freedom of the chunk-owned write and copy-on-write bitmap
#     disciplines (-race).
#
# Every |-separated alternative of a group's -run pattern must match at
# least one test in the group's packages (checked against `go test -list`),
# so a renamed or deleted test fails the script instead of silently
# dropping out of the race gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# crosscheck RUN PKG... checks that each alternative of RUN names a test in
# PKG..., then runs the matching tests under the race detector.
crosscheck() {
	local run=$1 names alt
	shift
	names=$(go test -race -list . "$@")
	names=$(grep -E '^(Test|Example|Fuzz)' <<<"$names" || true)
	IFS='|' read -ra alts <<<"$run"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "crosscheck: -run alternative '$alt' matches no test in $*" >&2
			exit 1
		fi
	done
	go test -race -count=1 -run "$run" "$@" 2>&1
}

crosscheck 'TestGOMAXPROCSCrosscheck|TestDetectAllGolden' .

crosscheck 'TestDetectAllCrosscheckSerialVsPool|TestDetectAllCrosscheckEvictedIndex|TestDetectAllCancelMidPeel|TestDetectFromCancelResetsPositions|TestLIDCrosscheckSerialVsPool|TestStateMatchesReference|TestSelectVertexMatchesSwitchForm|TestColumnParMatchesColumn|TestKernelSymmetry|Test.*ForChunks.*|TestChunkOrderReduction|TestEachWorkerOwnership|TestEachInline|TestEachSlotIndexed|TestEachEmpty' \
	./internal/core/ ./internal/lid/ ./internal/affinity/ ./internal/par/

crosscheck 'TestFirstCommitMatchesDetectAll|TestFirstCommitCancelMidPeel|TestRejectedArrivalEndsCommitFree' \
	./internal/stream/

crosscheck 'Evict|Retention|TestEvictRepairMatchesDirectDensity|TestV3Tombstone|TestV2Shim|TestFromChunksLive|TestClustersReturnsCopy|TestRestoreRejectsCorruptClusters' \
	./internal/matrix/ ./internal/lsh/ ./internal/stream/ ./internal/snapshot/ ./internal/engine/ ./internal/server/

crosscheck 'TestAssignBatchMatchesSequential|TestAssignBatchMatchesExact|TestAssignMatchesFullScan|TestAssignMarkerWrap|TestAssignBatchAtomicValidation|TestConcurrentAssignIngest|TestColumnPointPackedMatchesGathered|TestScorePackedMatchesColumnSum' \
	./internal/engine/ ./internal/affinity/

crosscheck 'TestSharded|TestShardedMetricsShardOrder|TestShardedLoadReturnsLowestShardError|TestNewShardedRejectsRaggedInitial|TestManifest' \
	./internal/engine/ ./internal/snapshot/

crosscheck 'TestDetectParallelExecutorInvariance|TestDetectParallelGolden|TestExecutorCountInvariance|TestExecutorsBeyondSeeds|TestContextCancel|TestMidMapCancelStopsSeeds|TestCancelAfterMap' \
	. ./internal/palid/

crosscheck 'TestConformance|TestConformanceCandidatesByIDs|TestV4|TestMinHash|TestDenseSnapshotRefusesMinHashRestore|TestSignature|TestAssignIngestSetForms|TestBackendMismatchTyped400' \
	./internal/index/ ./internal/minhash/ ./internal/snapshot/ ./internal/engine/ ./internal/server/

crosscheck 'TestCompactGeneration|TestAutoCompaction|TestShardedCompactGeneration|TestChainRestore|TestChainGenerationCompactionRerootsChain|TestChainWriterFullOnly|TestChainWriterConcurrentSaves|TestSaveFailureKeepsPreviousSave|TestSaveShardFailureKeepsPreviousSave|TestLegacyLayoutsRestore|TestLegacyManifestResumesCursor|TestSaveReplacesLegacyLayout|TestVersionsWriteReadRewriteFixedPoint|TestGenerationPersistsOnlyInV5|TestDelta|TestApplyDelta|TestChainManifestRoundTrip|TestStatsGenerationFields|TestEvictAlreadyDead' \
	./internal/stream/ ./internal/snapshot/ ./internal/engine/ ./internal/server/

echo "crosscheck (with -race): OK" >&2
