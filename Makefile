GO ?= go

.PHONY: build check test race vet fuzz-smoke resume-smoke daemon-smoke bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the CI gate: static analysis plus the race-enabled test suite.
check: vet race

# fuzz-smoke runs each native fuzz target for 10 s (the CI fuzz gate); this
# is the one list of targets.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRecv -fuzztime=10s -run='^$$' ./internal/rsp/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=10s -run='^$$' ./internal/rsp/
	$(GO) test -fuzz=FuzzParseRepro -fuzztime=10s -run='^$$' ./internal/triage/
	$(GO) test -fuzz=FuzzParseManifestLine -fuzztime=10s -run='^$$' ./internal/corpus/
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=10s -run='^$$' ./internal/corpus/
	$(GO) test -fuzz=FuzzServerHandle -fuzztime=10s -run='^$$' ./internal/ocd/
	$(GO) test -fuzz=FuzzRead -fuzztime=10s -run='^$$' ./internal/journal/
	$(GO) test -fuzz=FuzzDecodeSpec -fuzztime=10s -run='^$$' ./internal/server/
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=10s -run='^$$' ./internal/wire/
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run='^$$' ./internal/fsb/
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run='^$$' ./internal/cov/

# resume-smoke kills a persisted campaign with SIGKILL, verifies the durable
# store, resumes it and asserts coverage is a superset (the CI crash-safety
# gate).
resume-smoke:
	./scripts/resume_smoke.sh

# daemon-smoke boots eofd over a 2-board pool, drives it with eofctl as two
# tenants (one preempted mid-flight), then kill -9s the daemon under a third
# campaign and asserts the restart re-adopts it (the CI control-plane gate).
daemon-smoke:
	./scripts/daemon_smoke.sh

# bench-smoke runs the benchmark harness's own tests. The harness (bench/, a
# separate module) compiles against internal/link, internal/backend and
# internal/core, so this also catches a break of the API it builds on. The
# benchmark itself runs with `bash bench/run.sh` (see bench/README.md).
bench-smoke:
	cd bench && $(GO) test ./...
