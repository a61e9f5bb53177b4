// Corpus for the ctxflow analyzer.
package reqscope

import (
	"context"
	"net/http"
)

type engine struct{}

func (e *engine) work(ctx context.Context) error { return ctx.Err() }

// Answer is the context-free shim beside AnswerCtx.
func (e *engine) Answer(id string) error { return e.AnswerCtx(context.Background(), id) }

func (e *engine) AnswerCtx(ctx context.Context, id string) error { return e.work(ctx) }

// Pause has no ctx form: calling it from request scope is fine.
func (e *engine) Pause(id string) error { return nil }

// answerer is an interface carrying both forms.
type answerer interface {
	Answer(id string) error
	AnswerCtx(ctx context.Context, id string) error
}

// wrapper reaches the shim through an embedded engine.
type wrapper struct{ *engine }

// An HTTP handler minting fresh contexts: flagged.
func handleThing(w http.ResponseWriter, r *http.Request) {
	e := &engine{}
	_ = e.work(context.Background()) // want `context.Background\(\) inside request-scoped handleThing`
	_ = e.work(context.TODO())       // want `context.TODO\(\) inside request-scoped handleThing`
	w.WriteHeader(http.StatusOK)
}

// Handler shape via method with extra params: still a handler.
func (e *engine) serveThing(w http.ResponseWriter, r *http.Request, id string) {
	_ = e.work(context.Background()) // want `context.Background\(\) inside request-scoped serveThing`
	_ = id
}

// A context-threading engine method: flagged.
func (e *engine) FinishCtx(ctx context.Context, id string) error {
	return e.work(context.Background()) // want `context.Background\(\) inside request-scoped FinishCtx`
}

// Background inside a goroutine launched by a handler is still a severed
// chain: flagged (detach with trace.Detach instead).
func handleAsync(w http.ResponseWriter, r *http.Request) {
	e := &engine{}
	go func() {
		_ = e.work(context.Background()) // want `context.Background\(\) inside request-scoped handleAsync`
	}()
}

// The threading idiom the analyzer pushes toward: fine.
func handleGood(w http.ResponseWriter, r *http.Request) {
	e := &engine{}
	_ = e.work(r.Context())
}

// A *Ctx method threading its ctx: fine.
func (e *engine) StartCtx(ctx context.Context, id string) error {
	return e.work(ctx)
}

// Not request-scoped — a public wrapper without a ctx param may mint the
// root context for untraced callers: fine.
func Finish(id string) error {
	e := &engine{}
	return e.FinishCtx(context.Background(), id)
}

// Name ends in Ctx but takes no context: not the engine idiom, fine.
func buildCtx(id string) context.Context {
	return context.Background()
}

// A handler calling the context-free shim of an operation that has a ctx
// form drops the request ctx inside the shim: flagged, whether the
// receiver is a concrete type, an interface or an embedding struct.
func handleShim(w http.ResponseWriter, r *http.Request) {
	e := &engine{}
	_ = e.Answer("q1") // want `Answer inside request-scoped handleShim drops the request ctx: call AnswerCtx`
	var a answerer = e
	_ = a.Answer("q1")          // want `Answer inside request-scoped handleShim drops the request ctx: call AnswerCtx`
	_ = wrapper{e}.Answer("q1") // want `Answer inside request-scoped handleShim drops the request ctx: call AnswerCtx`
}

// A *Ctx method calling a sibling shim: flagged.
func (e *engine) ReviewCtx(ctx context.Context, id string) error {
	return e.Answer(id) // want `Answer inside request-scoped ReviewCtx drops the request ctx: call AnswerCtx`
}

// The ctx form, and a method without one: fine.
func handleShimGood(w http.ResponseWriter, r *http.Request) {
	e := &engine{}
	_ = e.AnswerCtx(r.Context(), "q1")
	_ = e.Pause("q1")
}

// Outside request scope the shim is the right call: fine.
func answerAll(e *engine, ids []string) {
	for _, id := range ids {
		_ = e.Answer(id)
	}
}

// Suppression syntax: acknowledged sites pass.
func handleAllowed(w http.ResponseWriter, r *http.Request) {
	e := &engine{}
	//assess:allow ctxflow: exercising the suppression syntax
	_ = e.work(context.Background())
}
