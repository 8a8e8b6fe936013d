package console

import (
	"html/template"
	"net/http"
	"time"

	"orochi/internal/epoch"
)

// index serves "/-/": one server-rendered page summarizing the live
// pipeline — no scripts, no assets, nothing but the template below, so
// it works from curl as well as a browser.
func (c *Console) index(w http.ResponseWriter, r *http.Request) {
	data := indexData{Uptime: time.Since(c.started).Round(time.Second)}
	if c.srv != nil {
		cpu, n := c.srv.CPU()
		data.HasServer = true
		data.Requests = n
		data.CPU = cpu.Round(time.Millisecond)
		data.InFlight = c.srv.InFlight()
		if secs := time.Since(c.started).Seconds(); secs > 0 {
			data.AvgRate = float64(n) / secs
		}
	}
	if c.mgr != nil {
		v := c.epochsView()
		data.Epochs = &v
	}
	if log := c.decisions(); log != nil {
		data.Decisions = log.Decisions()
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTmpl.Execute(w, data)
}

type indexData struct {
	Uptime    time.Duration
	HasServer bool
	Requests  int64
	CPU       time.Duration
	InFlight  int64
	AvgRate   float64
	Epochs    *EpochsView
	Decisions []epoch.Decision
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>orochi console</title>
<style>
body { font-family: monospace; margin: 2em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #999; padding: 2px 8px; text-align: left; }
.accept { color: #060; } .reject { color: #a00; font-weight: bold; }
</style></head><body>
<h1>orochi console</h1>
<p>uptime {{.Uptime}} &middot;
<a href="/-/metrics">metrics</a> &middot;
<a href="/-/api/verdicts">verdicts (json)</a></p>

{{if .HasServer}}
<h2>serving</h2>
<table>
<tr><th>requests</th><th>cpu</th><th>in flight</th><th>avg req/s</th></tr>
<tr><td>{{.Requests}}</td><td>{{.CPU}}</td><td>{{.InFlight}}</td><td>{{printf "%.1f" .AvgRate}}</td></tr>
</table>
{{end}}

{{with .Epochs}}
<h2>epoch pipeline</h2>
<p>dir {{.Dir}} &middot; current epoch {{.CurrentEpoch}} ({{.CurrentEvents}} events buffered)
{{- if .PipelineError}} &middot; <span class="reject">pipeline error: {{.PipelineError}}</span>{{end}}
{{- with .Audit}} &middot; audit next epoch {{.NextEpoch}}, {{.Progress}}
{{- if .ChainAccepted}} &middot; <span class="accept">chain ACCEPT</span>{{else}} &middot; <span class="reject">chain REJECT</span>{{end}}{{end}}</p>
<table>
<tr><th>epoch</th><th>events</th><th>requests</th><th>bytes</th><th>manifest</th></tr>
{{range .Sealed}}<tr><td>{{.Epoch}}</td><td>{{.Events}}</td><td>{{.Requests}}</td><td>{{.Bytes}}</td><td>{{printf "%.12s" .ManifestSHA}}</td></tr>
{{end}}</table>
{{end}}

{{if .Decisions}}
<h2>verdicts</h2>
<table>
<tr><th>epoch</th><th>verdict</th><th>reason</th><th>resolution</th><th>chain</th><th></th></tr>
{{range .Decisions}}<tr>
<td>{{.Epoch}}</td>
<td>{{if .Accepted}}<span class="accept">ACCEPT</span>{{else}}<span class="reject">REJECT</span>{{end}}{{if .ScrubFailed}} <span class="reject">scrub-failed</span>{{end}}</td>
<td>{{.Reason}}</td>
<td>{{.Resolution}}{{if .Note}}: {{.Note}}{{end}}</td>
<td>{{printf "%.12s" .ChainSHA}}</td>
<td><a href="/-/api/verdicts/{{.Epoch}}">detail</a></td>
</tr>
{{end}}</table>
<p>acknowledge a reject: <code>curl -X POST /-/api/ack -d '{"epoch": N, "note": "..."}'</code></p>
{{end}}
</body></html>
`))
