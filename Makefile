GO ?= go

.PHONY: build test check race vet experiments

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the full gate: scripts/check.sh builds, vets, checks gofmt
# and the goldens, smoke-fuzzes the front end, runs the race detector,
# the bench module's tests and the CLI, serve, profiler, explainer,
# engine and incremental gates.
check:
	sh scripts/check.sh

experiments:
	$(GO) run ./cmd/dart-experiments
