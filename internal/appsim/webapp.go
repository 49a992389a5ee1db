package appsim

import (
	"time"

	"speakup/internal/core"
	"speakup/internal/metrics"
	"speakup/internal/netsim"
	"speakup/internal/sim"
	"speakup/internal/tcpsim"
)

// WebServerApp is the separate web server S of the Figure 9 bystander
// experiment: it answers GETs with a file of the requested size.
type WebServerApp struct {
	stack *tcpsim.Stack
}

// NewWebServerApp installs the file server on a stack.
func NewWebServerApp(stack *tcpsim.Stack) *WebServerApp {
	a := &WebServerApp{stack: stack}
	stack.Listen(func(conn *tcpsim.Conn) { conn.OnRecord = serveFile })
	return a
}

// serveFile answers a GET with a file of the size it asks for.
func serveFile(conn *tcpsim.Conn, tag uint64) {
	m := msg(tag)
	if m.kind() == kindGet && !conn.Closed() {
		conn.Write(int(m.id()), newMsg(kindFile, 0))
	}
}

// BystanderApp emulates the paper's wget host H: it downloads a file
// of fixed size from the web server repeatedly (a new connection per
// download, like wget) and records end-to-end latencies.
type BystanderApp struct {
	loop     *sim.Loop
	stack    *tcpsim.Stack
	server   netsim.NodeID
	fileSize int
	reqSize  int

	started   time.Duration
	onRecord  func(*tcpsim.Conn, uint64) // built once for every download
	Latencies metrics.Sample
	Completed int

	// MaxDownloads stops after this many (0 = unlimited).
	MaxDownloads int
}

// NewBystanderApp creates the downloader; call Start to begin.
func NewBystanderApp(stack *tcpsim.Stack, server netsim.NodeID, fileSize int) *BystanderApp {
	b := &BystanderApp{
		loop:     stack.Net().Loop(),
		stack:    stack,
		server:   server,
		fileSize: fileSize,
		reqSize:  200,
	}
	b.onRecord = b.fileArrived
	return b
}

// Start begins the download loop.
func (b *BystanderApp) Start() { b.download() }

func (b *BystanderApp) download() {
	if b.MaxDownloads > 0 && b.Completed >= b.MaxDownloads {
		return
	}
	b.started = b.loop.Now()
	conn := b.stack.Dial(b.server, nil)
	conn.Write(b.reqSize, newMsg(kindGet, core.RequestID(b.fileSize)))
	conn.OnRecord = b.onRecord
}

// fileArrived records a finished download and starts the next.
func (b *BystanderApp) fileArrived(conn *tcpsim.Conn, tag uint64) {
	if msg(tag).kind() != kindFile {
		return
	}
	b.Latencies.AddDuration(b.loop.Now() - b.started)
	b.Completed++
	conn.Close()
	b.download()
}
